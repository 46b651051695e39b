"""The package top level is the README's library example: the example runs as
written (as CI's README step runs it), and the package binds exactly the
names it reads through ``tc.``, besides its modules and ``__version__``."""

import re
import types
from pathlib import Path

import tdcert

README = Path(__file__).resolve().parents[1] / "README.md"


def _example() -> str:
    section = README.read_text().split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_example_runs():
    exec(compile(_example(), "README.md#library-entry-points", "exec"), {})


def test_package_binds_exactly_the_example_names():
    public = {name for name, value in vars(tdcert).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(re.findall(r"\btc\.(\w+)", _example()))
