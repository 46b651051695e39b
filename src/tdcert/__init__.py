"""tdcert: TD(0) and contractive stochastic approximation under Markovian
sampling, with exact steady-state oracles and Monte Carlo certification of
finite-time boundedness and convergence bounds.

The package holds the README's library entry points; every other name is
imported from its module (``tdcert.chain``, ``oracle``, ``sa_core``,
``harness``, ``bundled``, ``cli``)."""

__version__ = "0.2.0"

from .chain import MarkovRewardProcess
from .oracle import FeatureMatrix, build_steady_state
from .sa_core import TD0Provider, resolve_step_size
from .harness import (
    ExperimentConfig,
    check_boundedness,
    check_recursion,
    estimate_dt_et,
    run_experiment,
    sweep,
)
