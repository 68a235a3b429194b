"""Every experiment and every key of the CLI against hostile values.

One key at a time takes a value from HOSTILE, through its flag or a
``--config`` file, with the other keys at tiny sizes.  Whatever the value,
`main` must exit 0, 1 or 2 without a traceback; a non-zero exit prints
exactly one ``error:`` line and writes no file, and an exit of 0 writes
one CSV whose numbers are all finite.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shlattice.cli import RUNNERS, SWITCH, experiment_keys, main

HOSTILE = [math.nan, math.inf, -math.inf, 0, -0.0, -1, 1e300, "", "x", True, 2 ** 63]

# small enough that the module runs in about fifteen seconds
TINY = {"n-elements": 2, "m-samples": 16}
BASE = {
    "dispersion": {"k-min": 1.0, "k-max": 1.0, "k-steps": 1, "t-fit": 0.1},
    "compare": {"r": 0.1, "t-end": 0.5, "n-samples": 2},
    "boundary-select": {"r": 0.05, "t-end": 0.2},
    "boundary-equilibrium": {"t-end": 0.5},
    "boundary-profiles": {"profile-samples": 3},
    "simulate-direct": {"t-end": 0.2},
    "simulate-model": {"t-end": 0.5, "sample-stride": 1},
}
CASES = [(experiment, key) for experiment in RUNNERS for key in experiment_keys(experiment)]


@contextlib.contextmanager
def inside(directory):
    """Run with directory as the working directory, where a relative
    output-dir lands."""
    old = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(old)


def run(experiment, key, value, channel):
    """(exit code, stderr, files written) of main with key set to value."""
    argv = [experiment]
    for k, v in {**TINY, **BASE[experiment]}.items():
        if k != key:
            argv += [f"--{k}", str(v)]
    switch = experiment_keys(experiment)[key][1] is SWITCH
    with tempfile.TemporaryDirectory() as tmp, inside(tmp):
        if channel == "config":
            Path("config.json").write_text(json.dumps({key: value}))
            argv += ["--config", "config.json"]
        elif switch and value is True:
            argv += [f"--{key}"]
        else:
            argv += [f"--{key}", str(value)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:   # a usage error
                code = exc.code
        written = {p.relative_to(tmp): p.read_bytes() for p in Path(tmp).rglob("*")
                   if p.is_file() and p.name != "config.json"}
    return code, err.getvalue(), written


@pytest.mark.parametrize("experiment, key", CASES)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(value=st.sampled_from(HOSTILE), channel=st.sampled_from(["flag", "config"]))
def test_hostile_value_exits_cleanly(experiment, key, value, channel):
    code, err, written = run(experiment, key, value, channel)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
        assert written == {}
        return
    (name,) = [p for p in written if p.suffix == ".csv"]
    rows = list(csv.reader(io.StringIO(written[name].decode())))[1:]
    assert rows
    for row in rows:
        assert all(math.isfinite(float(cell)) for cell in row), row


@pytest.mark.parametrize("argv, message", [
    (["dispersion", "--k-steps", "9223372036854775807"],
     "k-steps must be at most 10,000,000, got 9223372036854775807"),
    (["boundary-profiles", "--profile-samples", "9223372036854775808"],
     "profile-samples must be at most 10,000,000, got 9223372036854775808"),
    (["simulate-model", "--sample-stride", "9223372036854775808"],
     "sample-stride must be at most 10,000,000, got 9223372036854775808"),
    (["compare", "--n-samples", "10000001"], "n-samples must be at most 10,000,000, got 10000001"),
])
def test_counts_past_the_budget_exit_one_before_any_work(argv, message, capsys, monkeypatch,
                                                         tmp_path):
    def no_run(cfg, params):
        raise AssertionError("the runner started")

    monkeypatch.setitem(RUNNERS, argv[0], no_run)
    assert main(argv + ["--output-dir", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error: ") and message in line
    assert not list(tmp_path.iterdir())


def test_count_at_the_budget_passes(tmp_path):
    # the budget itself is a valid count: 10,000,000 rolls per element
    assert main(["boundary-profiles", "--p", "10000000", "--profile-samples", "3",
                 "--output-dir", str(tmp_path)]) == 0
