"""Experiment harness: config ingestion, orchestration, CSV/manifest output.

Every experiment writes one CSV of plot-ready data plus a manifest echoing
the resolved configuration: ``<csv-stem>.manifest.json`` for the run, and
``manifest.json`` for the latest run in the output directory.  Output is
deterministic for a given (config, seed); exit codes are 0 on success, 1 on
validation failure and 2 on numerical divergence.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    BoundaryForcing,
    DivergenceError,
    FieldGrid,
    conjugate_state,
    make_params,
)
from .amplitude_model import SignChoice, run_model
from .analysis import (
    CompareConfig,
    boundary_equilibrium,
    compare_model_vs_direct,
    she_growth_rate,
)
from .direct_solver import (
    Scheme,
    SolverConfig,
    integrate_bounded,
    integrate_spectral,
    measure_growth_rate,
)
from .subgrid import boundary_profiles, extract_amplitudes, lattice_field

_FMT = "%.12g"

SHARED_KEYS = {
    "r": 0.0,
    "gamma": 1.0,
    "p": 1,
    "n-elements": 8,
    "m-samples": 32,
    "seed": 0,
    "output-dir": "runs",
}

EXPERIMENT_KEYS = {
    "dispersion": {"k-min": 0.5, "k-max": 1.5, "k-steps": 21,
                   "eps0": 1e-6, "t-fit": 5.0, "dt": 0.02},
    "compare": {"r-ladder": None, "t-end": None, "n-samples": 40,
                "dt-model": 0.1, "dt-oracle": 0.05, "modulation": 0.2},
    "boundary-select": {"sign": "upper", "t-end": None, "dt": 0.05,
                        "amp0": 0.05, "phase-deg": 45.0, "with-oracle": False},
    "boundary-equilibrium": {"alpha": 0.1, "beta": 0.0, "t-end": 300.0,
                             "dt": 0.05, "right-forcing": "same"},
    "boundary-profiles": {"sign": "upper", "profile-samples": 161},
    "simulate-direct": {"scheme": "spectral-etd", "kind": "even",
                        "alpha": 0.0, "beta": 0.0, "alpha-omega": 0.0,
                        "t-end": 10.0, "dt": None, "init-amp": 0.01,
                        "c-stab": 0.5, "accel-warn": 1.0},
    "simulate-model": {"kind": "periodic", "alpha": 0.0, "beta": 0.0,
                       "alpha-omega": 0.0, "t-end": 100.0, "dt": 0.05,
                       "init-amp": 0.05, "random-init": False,
                       "sample-stride": 10, "accel-warn": 1.0},
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_flags(sub: argparse.ArgumentParser, keys: dict) -> None:
    for key, default in keys.items():
        flag = "--" + key
        if isinstance(default, bool):
            sub.add_argument(flag, dest=key, action="store_true", default=None,
                             help=f"(default: {default})")
        else:
            sub.add_argument(flag, dest=key, default=None,
                             help=f"(default: {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shlattice",
                     description="Swift-Hohenberg amplitude-lattice experiments")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name, keys in EXPERIMENT_KEYS.items():
        sub = subs.add_parser(name, prog=f"shlattice {name}")
        sub.add_argument("--config", help="JSON config file (flags override it)")
        _add_flags(sub, {**SHARED_KEYS, **keys})
    return parser


def _coerce(value, default):
    """Interpret a flag/config string against the default's type."""
    if value is None or value == "":
        return default
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        return str(value).lower() in ("1", "true", "yes", "on")
    if isinstance(default, int) and not isinstance(default, bool):
        return int(value)
    if isinstance(default, float):
        return float(value)
    return value


def resolve_config(experiment: str, file_cfg: dict, flag_cfg: dict) -> dict:
    """Layer defaults < config file < flags, rejecting unknown keys."""
    allowed = {**SHARED_KEYS, **EXPERIMENT_KEYS[experiment]}
    for key in file_cfg:
        if key == "experiment":
            if file_cfg[key] != experiment:
                raise ValueError(
                    f"config file experiment '{file_cfg[key]}' does not match '{experiment}'")
            continue
        if key not in allowed:
            raise ValueError(f"unknown config key: '{key}'")
    resolved = dict(allowed)
    resolved.update({k: v for k, v in file_cfg.items() if k != "experiment"})
    for key, value in flag_cfg.items():
        if value is not None:
            resolved[key] = value
    # normalise types against the defaults (config/flag values may be strings)
    for key, default in allowed.items():
        if default is not None:
            resolved[key] = _coerce(resolved[key], default)
    return resolved


def _params_from(cfg: dict):
    return make_params(r=float(cfg["r"]), gamma=float(cfg["gamma"]),
                       p=int(cfg["p"]), n_elements=int(cfg["n-elements"]),
                       m_samples=int(cfg["m-samples"]))


def _signal_from(cfg: dict, base_key: str):
    """Constant or sinusoidal signal: value * cos(omega t) when omega is set."""
    amp = float(cfg.get(base_key, 0.0) or 0.0)
    omega = float(cfg.get(f"{base_key}-omega", 0.0) or 0.0)
    if omega:
        return lambda t: amp * math.cos(omega * t)
    return amp


def _warn_fast_forcing(cfg: dict, t_end: float) -> None:
    """Finite-difference estimate of the forcing acceleration; the model is
    only valid for slowly varying signals."""
    threshold = float(cfg.get("accel-warn", 1.0) or 1.0)
    ts = np.linspace(0.0, t_end, 201)
    dt = ts[1] - ts[0]
    for key in ("alpha", "beta"):
        sig = _signal_from(cfg, key)
        if callable(sig):
            vals = np.array([sig(t) for t in ts])
            acc = np.abs(np.diff(vals, 2)).max() / dt ** 2 if len(vals) > 2 else 0.0
            if acc > threshold:
                print(f"warning: {key}(t) acceleration {acc:.3g} exceeds "
                      f"{threshold:.3g}; the model assumes slowly varying forcing",
                      file=sys.stderr)


def _forcing_from(cfg: dict, params, kind: str) -> BoundaryForcing:
    alpha = _signal_from(cfg, "alpha")
    beta = _signal_from(cfg, "beta")
    if kind == "even":
        return BoundaryForcing.even_given(alpha, beta, p=params.p)
    if kind == "odd":
        return BoundaryForcing.odd_given(alpha, beta, p=params.p)
    if kind == "periodic":
        return BoundaryForcing.periodic()
    raise ValueError(f"unknown boundary kind '{kind}'")


def _create_unique(out_dir: Path, stem: str):
    """Create <stem>.csv exclusively, or <stem>_2.csv, <stem>_3.csv, ...
    when an earlier run took the name."""
    for i in itertools.count(1):
        path = out_dir / (f"{stem}.csv" if i == 1 else f"{stem}_{i}.csv")
        try:
            return path, open(path, "x", newline="")
        except FileExistsError:
            continue


def _write_outputs(cfg: dict, experiment: str, header: list[str],
                   rows: list[tuple], extra_meta: dict,
                   started: float) -> Path:
    out_dir = Path(cfg["output-dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    csv_path, fh = _create_unique(out_dir, f"{experiment}-{stamp}")
    with fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_FMT % v if isinstance(v, float) else v for v in row])
    manifest = {
        "experiment": experiment,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "csv": csv_path.name,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "rng": "numpy-default-pcg64",
        "wall_time_s": round(time.time() - started, 3),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        **extra_meta,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    # one manifest per run, and manifest.json for the latest run
    for name in (f"{csv_path.stem}.manifest.json", "manifest.json"):
        (out_dir / name).write_text(text)
    print(csv_path)
    return csv_path


# -- experiment runners ------------------------------------------------------

def run_dispersion(cfg: dict, started: float) -> int:
    params = _params_from(cfg)
    ks = np.linspace(float(cfg["k-min"]), float(cfg["k-max"]), int(cfg["k-steps"]))
    rows = []
    for k in ks:
        theory = she_growth_rate(float(k), params.r)
        measured = measure_growth_rate(params, float(k), eps0=float(cfg["eps0"]),
                                       T=float(cfg["t-fit"]), dt=float(cfg["dt"]))
        rows.append((float(k), theory, measured))
    _write_outputs(cfg, "dispersion", ["k", "lambda_theory", "lambda_measured"],
                   rows, {}, started)
    return 0


def run_compare(cfg: dict, started: float) -> int:
    params = _params_from(cfg)
    ladder = cfg.get("r-ladder")
    if isinstance(ladder, str):
        ladder = tuple(float(v) for v in ladder.split(",") if v)
    t_end = cfg.get("t-end")
    t_end = 10.0 / max(params.r, 1e-6) if t_end is None else float(t_end)
    ccfg = CompareConfig(params=params, t_end=t_end,
                         n_samples=int(cfg["n-samples"]),
                         dt_model=float(cfg["dt-model"]),
                         dt_oracle=float(cfg["dt-oracle"]),
                         r_ladder=ladder, modulation=float(cfg["modulation"]))
    report = compare_model_vs_direct(ccfg)
    if ladder:
        rows = [(row["r"], row["terminal_sup_error"], row["normalised"])
                for row in report.metadata["ladder"]]
        header = ["r", "terminal_sup_error", "normalised_error"]
        meta = {"convergence_slope": report.convergence_slope}
    else:
        rows = [(float(t), float(e)) for t, e in zip(report.times, report.sup_error)]
        header = ["t", "sup_error"]
        meta = {"validity_flag": report.metadata["validity_flag"]}
    _write_outputs(cfg, "compare", header, rows, meta, started)
    return 0


def run_boundary_select(cfg: dict, started: float) -> int:
    params = _params_from(cfg)
    sign = SignChoice(cfg["sign"])
    fast, _ = 8.0 / params.h ** 2 - params.r, params.r
    t_end = cfg.get("t-end")
    t_end = 10.0 / fast if t_end is None else float(t_end)
    forcing = _forcing_from({**cfg, "alpha": 0.0, "beta": 0.0}, params,
                            "even" if sign is SignChoice.UPPER else "odd")
    phase = math.radians(float(cfg["phase-deg"]))
    a0 = np.full(params.n_elements, float(cfg["amp0"]) * np.exp(1j * phase), complex)
    state = conjugate_state(0.0, a0)
    traj = run_model(state, params, forcing, t_end, float(cfg["dt"]),
                     sample_stride=max(1, int(t_end / float(cfg["dt"]) / 200)))
    rows = []
    for t, a1 in zip(traj.times, traj.a[:, 0]):
        mag = abs(a1) or 1.0
        rows.append((float(t), abs(a1.real) / mag, abs(a1.imag) / mag))
    meta: dict = {"t_end": t_end}
    if cfg["with-oracle"]:
        grid = lattice_field(state, params, periodic=False)
        dt_pde = 0.4 * grid.dx ** 2
        out = integrate_bounded(grid, params, forcing, t_end, dt_pde)
        a1 = extract_amplitudes(out, params).a[0]
        meta["oracle_phase_deg"] = math.degrees(np.angle(a1))
    _write_outputs(cfg, "boundary-select",
                   ["t", "re_fraction", "im_fraction"], rows, meta, started)
    return 0


def run_boundary_equilibrium(cfg: dict, started: float) -> int:
    params = _params_from(cfg)
    forcing = _forcing_from(cfg, params, "even")
    right = None
    if cfg["right-forcing"] == "zero":
        right = BoundaryForcing.even_given(0.0, 0.0, p=params.p)
    elif cfg["right-forcing"] != "same":
        raise ValueError("right-forcing must be 'same' or 'zero'")
    state = conjugate_state(0.0, np.zeros(params.n_elements, complex))
    t_end = float(cfg["t-end"])
    _warn_fast_forcing(cfg, t_end)
    traj = run_model(state, params, forcing, t_end, float(cfg["dt"]),
                     forcing_right=right,
                     sample_stride=max(1, int(t_end / float(cfg["dt"]) / 400)))
    predicted = boundary_equilibrium(params, float(cfg["alpha"]), float(cfg["beta"]))
    rows = [(float(t), float(a1.real), float(a1.imag), predicted)
            for t, a1 in zip(traj.times, traj.a[:, 0])]
    meta = {"predicted_re_a1": predicted,
            "final_re_a1": float(traj.a[-1, 0].real)}
    _write_outputs(cfg, "boundary-equilibrium",
                   ["t", "re_a1", "im_a1", "predicted_re_a1"], rows, meta, started)
    return 0


def run_boundary_profiles(cfg: dict, started: float) -> int:
    params = _params_from(cfg)
    sign = SignChoice(cfg["sign"])
    xs = np.linspace(-params.h / 2, params.h / 2, int(cfg["profile-samples"]))
    table = boundary_profiles(params, sign, xs)
    header = ["x", "alpha_profile", "beta_profile",
              "alpha_profile_xx", "beta_profile_xx"]
    rows = list(zip(*(map(float, table[h2]) for h2 in header)))
    _write_outputs(cfg, "boundary-profiles", header, rows, {}, started)
    return 0


def run_simulate_direct(cfg: dict, started: float) -> int:
    params = _params_from(cfg)
    rng = np.random.default_rng(int(cfg["seed"]))
    amp = float(cfg["init-amp"])
    t_end = float(cfg["t-end"])
    scheme = Scheme(cfg["scheme"])
    if scheme is Scheme.SPECTRAL_ETD:
        grid = FieldGrid.sample(
            lambda x: amp * np.cos(x) + 0.1 * amp * rng.standard_normal(x.size),
            params, periodic=True)
        dt = float(cfg["dt"]) if cfg["dt"] is not None else 0.05
        SolverConfig(dt=dt, t_end=t_end, scheme=scheme).validate()
        out = integrate_spectral(grid, params, t_end, dt)
    else:
        grid = FieldGrid.sample(lambda x: amp * np.cos(x), params, periodic=False)
        _warn_fast_forcing(cfg, t_end)
        forcing = _forcing_from(cfg, params, cfg["kind"])
        c_stab = float(cfg["c-stab"])
        dt = float(cfg["dt"]) if cfg["dt"] is not None else 0.8 * c_stab * grid.dx ** 2
        SolverConfig(dt=dt, t_end=t_end, scheme=scheme,
                     c_stab=c_stab).validate(dx=grid.dx)
        out = integrate_bounded(grid, params, forcing, t_end, dt, c_stab=c_stab)
    rows = [(float(x), float(u)) for x, u in zip(out.x, out.u)]
    _write_outputs(cfg, "simulate-direct", ["x", "u"], rows,
                   {"t_end": t_end}, started)
    return 0


def run_simulate_model(cfg: dict, started: float) -> int:
    params = _params_from(cfg)
    rng = np.random.default_rng(int(cfg["seed"]))
    amp = float(cfg["init-amp"])
    N = params.n_elements
    if cfg["random-init"]:
        a0 = amp * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    else:
        a0 = np.full(N, amp, complex)
    state = conjugate_state(0.0, a0)
    forcing = _forcing_from(cfg, params, cfg["kind"])
    t_end = float(cfg["t-end"])
    _warn_fast_forcing(cfg, t_end)
    traj = run_model(state, params, forcing, t_end, float(cfg["dt"]),
                     sample_stride=int(cfg["sample-stride"]))
    header = ["t"]
    for j in range(N):
        header += [f"re_a{j + 1}", f"im_a{j + 1}"]
    rows = []
    for i, t in enumerate(traj.times):
        row = [float(t)]
        for j in range(N):
            row += [float(traj.a[i, j].real), float(traj.a[i, j].imag)]
        rows.append(tuple(row))
    _write_outputs(cfg, "simulate-model", header, rows, {}, started)
    return 0


RUNNERS = {
    "dispersion": run_dispersion,
    "compare": run_compare,
    "boundary-select": run_boundary_select,
    "boundary-equilibrium": run_boundary_equilibrium,
    "boundary-profiles": run_boundary_profiles,
    "simulate-direct": run_simulate_direct,
    "simulate-model": run_simulate_model,
}


def main(argv=None) -> int:
    started = time.time()
    parser = build_parser()
    args = parser.parse_args(argv)
    experiment = args.experiment
    flag_cfg = {k: v for k, v in vars(args).items()
                if k not in ("experiment", "config")}
    try:
        file_cfg = {}
        if args.config:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
            if not isinstance(file_cfg, dict):
                raise ValueError("config file must hold a JSON object")
        cfg = resolve_config(experiment, file_cfg, flag_cfg)
        return RUNNERS[experiment](cfg, started)
    except DivergenceError as exc:
        print(f"error: numerical divergence: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
