"""The public surface holds only names that something uses.

Every name in ``shlattice.__all__`` other than a submodule must be referenced
beyond its own ``def``/``class`` line: in the package outside
``__init__.py``, in the acceptance suite or in the benchmarks.  A name that
only ``__init__.py`` and unit tests mention is dead API.
"""

import re
import types
from pathlib import Path

import shlattice

ROOT = Path(__file__).resolve().parent.parent
CALLERS = sorted(p for p in (ROOT / "src" / "shlattice").glob("*.py")
                 if p.name != "__init__.py")
CALLERS += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "benchmarks").glob("*.py"))]


def test_every_public_name_has_a_caller():
    lines = [line for path in CALLERS for line in path.read_text().splitlines()]
    public = [name for name in shlattice.__all__
              if not isinstance(getattr(shlattice, name), types.ModuleType)]
    unused = [name for name in public
              if not any(re.search(rf"\b{name}\b", line)
                         and not re.match(rf"\s*(def|class) {name}\b", line)
                         for line in lines)]
    assert unused == [], f"public names with no caller: {unused}"
