"""The benchmark's workloads, run once at their tiny size.

Each workload of ``benchmarks/workloads.py`` calls the library the way the
benchmark does (`compare_model_vs_direct`, `lattice_field`,
`integrate_bounded`, `SpectralStepper`, ...; `cli` runs every README command
but compare as a fresh CLI process) and checks its outputs with its own
gates.  Running them here makes a change to any of those calls fail the
suite, not just the manual benchmark self-test.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["ladder", "walls", "wide", "cli"])
def test_gates_pass_and_catch_corruption(name):
    wl = workloads.WORKLOADS[name]
    inp = wl.inputs(7, True)
    out = wl.run(inp, "coarse")
    results = wl.check(inp, out)
    assert [op for op, _, _ in results] == list(wl.ops)
    assert all(ok for _, ok, _ in results), results
    wl.corrupt(out)
    assert not all(ok for _, ok, _ in wl.check(inp, out))
