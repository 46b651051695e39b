"""tdcert: TD(0) and contractive stochastic approximation under Markovian
sampling, with exact steady-state oracles and Monte Carlo certification of
finite-time boundedness and convergence bounds."""

__version__ = "0.1.0"

from .chain import (
    ChainError,
    MarkovRewardProcess,
    ValidationReport,
    cycle_mrp,
    derive_seed,
    mrp_from_dict,
    random_mrp,
    stationary_distribution,
    tv_mixing_profile,
    validate_chain,
)
from .oracle import (
    CertificationError,
    FeatureError,
    FeatureMatrix,
    MixingOracle,
    MixingTimeCertificate,
    OracleError,
    SteadyStateModel,
    build_steady_state,
    constant_features,
    group_features,
    identity_features,
    lemma1_margin,
    mixing_time,
    oracle_report,
    random_features,
    steady_state_direction,
)
from .sa_core import (
    DelayProcess,
    ProviderAudit,
    SaturatingMonotoneProvider,
    StepSizeError,
    TD0Provider,
    UpdateDirectionProvider,
    audit_provider,
    resolve_step_size,
    td0_direction,
)
from .harness import (
    AuditError,
    BoundLedger,
    ConfigError,
    ExperimentConfig,
    MonteCarloEstimate,
    asymptotic_floor,
    check_boundedness,
    check_drift,
    check_iid_noise,
    check_recursion,
    estimate_dt_et,
    run_experiment,
    sweep,
    tune_weighted_average,
    weighted_average_experiment,
    write_columnar,
)
from .bundled import bundled_config, bundled_names, THEOREM1_NAMES
