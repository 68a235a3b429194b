"""Compare the numbers of two source trees on one fixed catalogue.

Each tree runs the catalogue in its own subprocess, with ``PYTHONPATH``
set to its ``src``; the catalogue itself is this file's, so both trees
answer the same questions through the public API.  For each entry the
table says either ``equal`` (the arrays' bytes are identical) or the
largest absolute difference and the largest relative one (against the
largest magnitude of the other tree's entry).

    python tools/same_numbers.py --against REV         # git archive REV vs this tree
    python tools/same_numbers.py --against-tree DIR    # DIR's src vs this tree
    python tools/same_numbers.py --against HEAD --tiny # small sizes, a few seconds

The catalogue, 64 entries: ``integrate_bounded`` on criterion 5's inputs
for both wall kinds, unforced, with constant and with time-varying
forcing (the field and its extracted amplitudes), and criterion 5's two
oracle phases from the unforced runs; ``integrate_spectral`` at n = 512
and n = 4096; ``run_model`` with periodic, even and odd walls, and with
time-varying walls at N = 2, either side of the stage-matrix cutoff in
both sectors and N = 512, with time-varying odd walls on the stencil at
N = 33 in the real sector and N = 17 in the general one, and the sample
times of a long strided run;
``rk4_step`` and ``model_rhs``; ``lattice_field`` and
``extract_amplitudes`` on their own, periodic and bounded, and
``extract_amplitudes`` at N = 4096; ``measure_growth_rate`` at four k, at its default step and at
0.02; the ladder slope, the three terminal errors and the last rung's
model and oracle amplitudes of ``compare_model_vs_direct``, and the model
amplitudes of its default single run (N = 8, r = 0.1, modulation 1);
at gamma = 0.6 and p = 2, where the lattice model's coefficients round,
``model_rhs``, ``run_model`` with forced even walls, ``lattice_field``,
``boundary_profiles`` and one ``compare_model_vs_direct`` run; and the CSVs of the six README commands other than ``compare``, with
``--seed 7``, and the configuration each of their manifests echoes (as
``json.dumps(..., sort_keys=True)``, so the values and their JSON
types).  It calls only API that older revisions have too.  Exits 1 when
any entry differs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# (name, README arguments, tiny overrides)
COMMANDS = [
    ("dispersion", ["dispersion", "--r", "0.1", "--k-min", "0.5", "--k-max", "1.5",
                    "--k-steps", "21"], ["--k-steps", "3"]),
    ("boundary-select", ["boundary-select", "--sign", "upper", "--r", "0.05",
                         "--n-elements", "2", "--with-oracle"], ["--m-samples", "16"]),
    ("boundary-equilibrium", ["boundary-equilibrium", "--alpha", "0.1", "--beta", "0",
                              "--t-end", "300"], ["--t-end", "5"]),
    ("boundary-profiles", ["boundary-profiles", "--p", "1", "--sign", "upper"], []),
    ("simulate-direct", ["simulate-direct", "--scheme", "spectral-etd", "--r", "0.3",
                         "--t-end", "50"], ["--t-end", "1"]),
    ("simulate-model", ["simulate-model", "--kind", "periodic", "--r", "0.05",
                        "--t-end", "200"], ["--t-end", "2"]),
]


def catalogue(tiny: bool) -> dict[str, np.ndarray]:
    """Every entry's array, computed with the shlattice on sys.path."""
    import shlattice as sh
    from shlattice import cli

    out = {}
    # criterion 5's inputs; m = 64 takes about 17,000 oracle steps
    params = sh.make_params(r=0.05, gamma=1.0, p=1, n_elements=2,
                            m_samples=16 if tiny else 64)
    t_end = 2.0 if tiny else 10.0 / (8.0 / params.h ** 2 - params.r)
    state = sh.conjugate_state(0.0, np.full(2, 0.05 * np.exp(1j * np.pi / 4)))
    signals = {"unforced": (0.0, 0.0), "constant": (0.02, 0.01),
               "varying": (lambda t: 0.02 * np.cos(0.3 * t), 0.01)}
    for kind, make in (("even", sh.BoundaryForcing.even_given),
                       ("odd", sh.BoundaryForcing.odd_given)):
        for label, (alpha, beta) in signals.items():
            grid = sh.lattice_field(state, params, periodic=False)
            field = sh.integrate_bounded(grid, params, make(alpha, beta, p=1), t_end)
            out[f"bounded.{kind}.{label}.u"] = field.u
            out[f"bounded.{kind}.{label}.a"] = sh.extract_amplitudes(field, params).a

    rng = np.random.default_rng(7)
    n_el = 4 if tiny else 16
    a0 = 0.1 * (rng.standard_normal(n_el) + 1j * rng.standard_normal(n_el))
    periodic = sh.make_params(r=0.1, gamma=1.0, p=1, n_elements=n_el, m_samples=32)
    grid = sh.lattice_field(sh.conjugate_state(0.0, a0), periodic, periodic=True)
    out["spectral.u"] = sh.integrate_spectral(grid, periodic, 1.0 if tiny else 10.0).u

    varying = sh.BoundaryForcing.even_given(lambda t: 0.02 * np.cos(0.3 * t), 0.01, p=1,
                                            right=(0.03, lambda t: 0.01 * np.sin(t)))
    for kind, forcing in (("periodic", sh.BoundaryForcing.periodic()),
                          ("even", sh.BoundaryForcing.even_given(0.02, 0.01, p=1)),
                          ("odd", sh.BoundaryForcing.odd_given(
                              lambda t: 0.02 * np.cos(0.3 * t), 0.01, p=1))):
        traj = sh.run_model(sh.conjugate_state(0.0, a0), periodic, forcing,
                            2.0 if tiny else 20.0, 0.05)
        out[f"model.{kind}.a"] = traj.a
    # either side of the stage-matrix cutoff (64 floats of state), in both
    # sectors, and the stencil at N = 512, all with time-varying walls
    for sector, n in (("real", 2), ("real", 32), ("real", 33), ("real", 512),
                      ("full", 16), ("full", 17)):
        a, b = 0.1 * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
        state = (sh.conjugate_state(0.0, a) if sector == "real"
                 else sh.AmplitudeState(0.0, a, np.conj(a) + 0.1 * b))
        params = sh.make_params(r=0.1, gamma=1.0, p=1, n_elements=n, m_samples=16)
        traj = sh.run_model(state, params, varying, 2.0 if tiny else 20.0, 0.05)
        out[f"model.{sector}.n{n}.a"] = traj.a
        if sector == "full":
            out[f"model.{sector}.n{n}.b"] = traj.b
    # the clock of a long, strided run from a start time off zero: each
    # sample's time is the loop's, accumulated step by step
    long_run = sh.run_model(sh.conjugate_state(0.3, a0[:2]),
                            sh.make_params(r=0.1, gamma=1.0, p=1, n_elements=2, m_samples=16),
                            varying, 20.0 if tiny else 2000.0, 0.05, sample_stride=7)
    out["model.long.times"] = long_run.times
    # the last state, general at N = 17
    stepped = sh.rk4_step(state, params, varying, 0.05)
    out["rk4_step.a"], out["rk4_step.b"] = stepped.a, stepped.b
    out["model_rhs.da"], out["model_rhs.db"] = sh.model_rhs(state, params, varying)
    # the stencil with time-varying odd walls, whose ghost sign and drive
    # phases differ from the even walls': N = 33 in the real sector, and
    # N = 17 off it (a and b stacked)
    odd = sh.BoundaryForcing.odd_given(lambda t: 0.02 * np.cos(0.3 * t), 0.01, p=1,
                                       right=(lambda t: 0.01 * np.sin(t), 0.03))
    rng_odd = np.random.default_rng(13)
    for sector, n in (("real", 33), ("full", 17)):
        a, b = 0.1 * (rng_odd.standard_normal((2, n)) + 1j * rng_odd.standard_normal((2, n)))
        start = (sh.conjugate_state(0.0, a) if sector == "real"
                 else sh.AmplitudeState(0.0, a, np.conj(a) + 0.1 * b))
        traj = sh.run_model(start, sh.make_params(r=0.1, gamma=1.0, p=1, n_elements=n,
                                                  m_samples=16), odd, 2.0 if tiny else 20.0, 0.05)
        out[f"model.odd.{sector}.n{n}"] = traj.a if sector == "real" else np.array(
            (traj.a, traj.b))

    # the reconstruction and the extraction on their own, periodic and
    # bounded: a general state at N = 16, and a sampled field that no
    # lattice reconstructs (a detuned roll and a third harmonic)
    rng = np.random.default_rng(11)
    a, b = 0.1 * (rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16)))
    general = sh.AmplitudeState(0.0, a, np.conj(a) + 0.1 * b)
    params = sh.make_params(r=0.1, gamma=1.0, p=1, n_elements=16, m_samples=32)
    for label, on_ring in (("periodic", True), ("bounded", False)):
        out[f"lattice_field.{label}.u"] = sh.lattice_field(general, params, periodic=on_ring).u
        field = sh.FieldGrid.sample(lambda x: 0.1 * np.cos(1.05 * x) + 0.02 * np.sin(3.0 * x),
                                    params, periodic=on_ring)
        out[f"extract_amplitudes.{label}.a"] = sh.extract_amplitudes(field, params).a

    # the extraction on a wide lattice, 4096 elements of 32 samples
    wide = sh.make_params(r=0.1, gamma=1.0, p=1, n_elements=64 if tiny else 4096, m_samples=32)
    for label, on_ring in (("periodic", True), ("bounded", False)):
        field = sh.FieldGrid.sample(lambda x: 0.1 * np.cos(1.05 * x) + 0.02 * np.sin(3.0 * x),
                                    wide, periodic=on_ring)
        out[f"extract_amplitudes.n4096.{label}.a"] = sh.extract_amplitudes(field, wide).a

    # the spectral oracle at n = 4096 (128 elements of 32 samples)
    wide = sh.make_params(r=0.1, gamma=1.0, p=1, n_elements=16 if tiny else 128, m_samples=32)
    a = 0.1 * (rng.standard_normal(wide.n_elements) + 1j * rng.standard_normal(wide.n_elements))
    grid = sh.lattice_field(sh.conjugate_state(0.0, a), wide, periodic=True)
    out["spectral.n4096.u"] = sh.integrate_spectral(grid, wide, 0.5 if tiny else 5.0).u

    # at each revision's default step, and at the fixed step 0.02
    for name, step in (("growth_rate", {}), ("growth_rate_fine", {"dt": 0.02})):
        out[name] = np.array([sh.measure_growth_rate(periodic, k, 1e-6, 1.0 if tiny else 5.0,
                                                     **step) for k in (0.5, 0.9, 1.0, 1.25)])
    # criterion 5's oracle phases, in degrees, of the unforced runs above
    out["criterion5.phases"] = np.degrees(np.angle(
        [out[f"bounded.{kind}.unforced.a"][0] for kind in ("even", "odd")]))

    ladder = (0.4, 0.2, 0.1) if tiny else (0.04, 0.02, 0.01)
    config = sh.CompareConfig(params=sh.make_params(r=0.02, gamma=1.0, p=1, n_elements=16,
                                                    m_samples=32), r_ladder=ladder)
    report = sh.compare_model_vs_direct(config)
    out["ladder.slope"] = np.array(report.convergence_slope)
    out["ladder.errors"] = np.array([row["terminal_sup_error"]
                                     for row in report.metadata["ladder"]])
    out["ladder.model"] = report.model_amplitudes
    out["ladder.oracle"] = report.oracle_amplitudes
    # compare's single run, at its default steps
    config = sh.CompareConfig(params=sh.make_params(r=0.1, gamma=1.0, p=1, n_elements=8,
                                                    m_samples=32), modulation=1.0)
    out["compare.model"] = sh.compare_model_vs_direct(config).model_amplitudes

    # the lattice model's coefficients at gamma = 0.6 and p = 2, where their
    # float operations round (at gamma = 1, p = 1 they are exact), so an ulp
    # moved in the coefficient table shows: the right-hand side, a run with
    # forced even walls, the reconstruction, the wall profiles and compare
    coupled = sh.make_params(r=0.1, gamma=0.6, p=2, n_elements=8, m_samples=32)
    a, b = 0.1 * (rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8)))
    general = sh.AmplitudeState(0.0, a, np.conj(a) + 0.1 * b)
    forced = sh.BoundaryForcing.even_given(lambda t: 0.02 * np.cos(0.3 * t), 0.01, p=2)
    out["model_rhs.g06p2.da"], out["model_rhs.g06p2.db"] = sh.model_rhs(general, coupled, forced)
    out["model.g06p2.even.a"] = sh.run_model(sh.conjugate_state(0.0, a), coupled, forced,
                                             2.0 if tiny else 20.0, 0.05).a
    out["lattice_field.g06p2.u"] = sh.lattice_field(general, coupled, periodic=True).u
    xs = np.linspace(-coupled.h / 2, coupled.h / 2, 33)
    profiles = sh.boundary_profiles(coupled, sh.SignChoice.UPPER, xs)
    out["boundary_profiles.g06p2"] = np.array([profiles[key] for key in sorted(profiles)])
    config = sh.CompareConfig(params=coupled, modulation=1.0, t_end=10.0 if tiny else None)
    out["compare.g06p2.model"] = sh.compare_model_vs_direct(config).model_amplitudes

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)   # a relative output-dir, so both trees echo the same one
        try:
            for name, argv, small in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):   # the CSV's path
                    code = cli.main(argv + (small if tiny else [])
                                    + ["--seed", "7", "--output-dir", name])
                if code != 0:
                    raise SystemExit(f"{name} exited {code}")
                (path,) = Path(name).glob("*.csv")
                out[f"csv.{name}"] = np.frombuffer(path.read_bytes(), dtype=np.uint8)
                config = json.loads((Path(name) / "manifest.json").read_text())["config"]
                out[f"manifest.{name}.config"] = np.frombuffer(
                    json.dumps(config, sort_keys=True).encode(), dtype=np.uint8)
        finally:
            os.chdir(home)
    return out


def _csv_numbers(raw: np.ndarray) -> np.ndarray:
    """The numeric cells of a CSV, NaN where a cell is not a number."""
    rows = list(csv.reader(io.StringIO(raw.tobytes().decode())))[1:]

    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return np.nan
    return np.array([[number(c) for c in row] for row in rows], dtype=float)


def difference(ours: np.ndarray, theirs: np.ndarray, name: str) -> str:
    if ours.dtype == theirs.dtype and ours.shape == theirs.shape \
            and ours.tobytes() == theirs.tobytes():
        return "equal"
    if name.startswith("csv."):
        ours, theirs = _csv_numbers(ours), _csv_numbers(theirs)
    if ours.shape != theirs.shape:
        return f"shape {theirs.shape} -> {ours.shape}"
    delta = np.abs(ours - theirs)
    if np.isnan(delta).any() and not (np.isnan(ours) == np.isnan(theirs)).all():
        return "NaN pattern differs"
    largest = np.nanmax(np.abs(theirs)) if theirs.size else 0.0
    worst = np.nanmax(delta) if delta.size else 0.0
    rel = worst / largest if largest else (0.0 if worst == 0 else np.inf)
    return f"max|d| {worst:.3g}, rel {rel:.3g}"


def _emit(tree: Path, tiny: bool, out: Path) -> None:
    """Run the catalogue in a subprocess on tree's src, saved to out."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, str(Path(__file__).resolve()), "--emit", str(out)]
    subprocess.run(argv + (["--tiny"] if tiny else []), env=env, cwd=out.parent, check=True)


def _export(rev: str, dest: Path) -> Path:
    """git archive REV of this repository, unpacked under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.11.4 and 3.10.12 on
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def compare(against: Path, tiny: bool) -> tuple[list[tuple[str, str]], bool]:
    """(entry, result) rows of the working tree against the tree `against`."""
    with tempfile.TemporaryDirectory() as tmp:
        theirs_path, ours_path = Path(tmp) / "theirs.npz", Path(tmp) / "ours.npz"
        _emit(against, tiny, theirs_path)
        _emit(ROOT, tiny, ours_path)
        with np.load(theirs_path) as theirs, np.load(ours_path) as ours:
            names = sorted(set(theirs.files) | set(ours.files))
            rows = [(name, difference(ours[name], theirs[name], name)
                     if name in ours.files and name in theirs.files else "missing")
                    for name in names]
    return rows, all(result == "equal" for _, result in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--against", metavar="REV", help="a git revision of this repository")
    which.add_argument("--against-tree", metavar="DIR", type=Path,
                       help="a source tree (a directory holding src/shlattice)")
    which.add_argument("--emit", metavar="NPZ", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the tests")
    args = parser.parse_args(argv)
    if args.emit:
        np.savez(args.emit, **catalogue(args.tiny))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = args.against_tree or _export(args.against, Path(tmp) / "rev")
        rows, same = compare(tree.resolve(), args.tiny)
    width = max(len(name) for name, _ in rows)
    print(f"{'entry':<{width}}  result")
    for name, result in rows:
        print(f"{name:<{width}}  {result}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
