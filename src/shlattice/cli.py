"""Experiment harness: config ingestion, orchestration, CSV/manifest output.

Each experiment is one runner in `RUNNERS`, called as
``run_<x>(cfg, params) -> (header, rows, extra_meta)``: it gets the
resolved configuration (every key typed like its default) and the
`ModelParams` built from it, and returns the CSV header, the rows and the
keys it adds to the manifest.  `main` is the one place that reads the
``--config`` file, resolves the configuration, builds the parameters,
calls the runner and writes its outputs.

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
    _MAX_STEPS,
    _step_count,
    conjugate_state,
    make_params,
)
from .amplitude_model import SignChoice, run_model
from .analysis import (
    CompareConfig,
    boundary_equilibrium,
    boundary_mode_rates,
    compare_model_vs_direct,
    oracle_amplitudes,
    she_growth_rate,
)
from .direct_solver import integrate_bounded, integrate_spectral, measure_growth_rate
from .subgrid import boundary_profiles

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

# keys whose default None means "derived from other keys", each with a
# value of the type a given value takes
_UNSET_TYPES = {"t-end": 0.0, "dt": 0.0, "r-ladder": (), "kind": ""}

# integer keys that count rolls, elements, samples, rows or steps; none may
# pass the step budget, since each costs at least a step's work, and a
# count near 2**63 would fail inside numpy rather than here
_COUNT_KEYS = ("p", "n-elements", "m-samples", "k-steps", "n-samples",
               "profile-samples", "sample-stride")

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
    "simulate-direct": {"scheme": "spectral-etd", "kind": None,
                        "alpha": 0.0, "beta": 0.0, "alpha-omega": 0.0,
                        "t-end": 10.0, "dt": None, "init-amp": 0.01,
                        "accel-warn": 1.0},
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shlattice",
                     description="Swift-Hohenberg amplitude-lattice experiments")
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name, keys in EXPERIMENT_KEYS.items():
        sub = subs.add_parser(name, prog=f"shlattice {name}")
        sub.add_argument("--config", help="JSON config file (flags override it)")
        for key, default in {**SHARED_KEYS, **keys}.items():
            switch = {"action": "store_true"} if isinstance(default, bool) else {}
            sub.add_argument("--" + key, dest=key, default=None,
                             help=f"(default: {default})", **switch)
    return parser


def _coerce(key: str, value, default):
    """Interpret a flag/config value against the type of its default, or of
    _UNSET_TYPES[key] when the default is None.  Only a switch takes
    true/false, an integer key takes only whole numbers, a list key (the
    r-ladder) takes a comma string or a list of numbers, and every other key
    takes one value."""
    if value is None:
        return default
    like = _UNSET_TYPES[key] if default is None else default
    if isinstance(like, tuple):
        items = value.split(",") if isinstance(value, str) else value
        if not isinstance(items, list):
            raise ValueError(f"{key} must be a comma string or a list of numbers, got {value!r}")
        return tuple(_coerce(key, v, 0.0) for v in items if v != "")
    if value == "":
        return default
    if isinstance(value, (list, dict)):
        raise ValueError(f"{key} takes one value, got {value!r}")
    if isinstance(like, bool):
        if isinstance(value, bool):
            return value
        return str(value).lower() in ("1", "true", "yes", "on")
    if isinstance(value, bool):
        raise ValueError(f"{key} is not a switch, got {value!r}")
    if isinstance(like, int):
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be a whole number, got {value!r}")
        return int(value)
    if isinstance(like, float):
        return float(value)
    return str(value)


def resolve_config(experiment: str, file_cfg: dict, flag_cfg: dict) -> dict:
    """Layer defaults < config file < flags, rejecting unknown keys.

    Every value comes back with its default's type; a key whose default is
    None stays None until given, and then takes its _UNSET_TYPES type.
    """
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
        resolved[key] = _coerce(key, resolved[key], default)
        if key in _COUNT_KEYS and resolved[key] > _MAX_STEPS:
            raise ValueError(f"{key} must be at most {_MAX_STEPS:,}, got {resolved[key]}")
    return resolved


def _params_from(cfg: dict):
    return make_params(r=cfg["r"], gamma=cfg["gamma"], p=cfg["p"],
                       n_elements=cfg["n-elements"], m_samples=cfg["m-samples"])


def _forcing_from(cfg: dict, params, kind: str, t_end: float,
                  dt: float | None) -> BoundaryForcing:
    """Forcing of the given kind: periodic, which takes no wall signals, or
    walls with constant beta and with alpha, or alpha cos(alpha-omega t)
    when alpha-omega is set.  The model is only valid for slowly varying
    signals, so it warns when the peak acceleration |alpha| omega^2 of that
    signal exceeds accel-warn, once the step rule has accepted the run over
    [0, t_end] in steps of at most dt (None: the solver's own step)."""
    amp, beta, omega = cfg["alpha"], cfg["beta"], cfg["alpha-omega"]
    if not math.isfinite(omega):
        raise ValueError(f"alpha-omega must be finite, got {omega}")
    if not cfg["accel-warn"] >= 0.0:   # NaN would never warn
        raise ValueError(f"accel-warn must be a non-negative number, got {cfg['accel-warn']}")
    if kind == "periodic":
        if amp or beta or omega:
            raise ValueError("a periodic domain has no walls: alpha, beta and alpha-omega "
                             f"must be 0, got {amp:g}, {beta:g} and {omega:g}")
        return BoundaryForcing.periodic()
    if kind not in ("even", "odd"):
        raise ValueError(f"unknown boundary kind '{kind}'")
    alpha = (lambda t: amp * math.cos(omega * t)) if omega else amp
    if omega:
        # a bad t_end or dt fails before the warning prints; a None dt is
        # the solver's own, so only t_end is checked
        _step_count(t_end, t_end if dt is None else dt)
        acc, threshold = abs(amp) * omega ** 2, cfg["accel-warn"]
        if acc > threshold:
            print(f"warning: alpha(t) acceleration {acc:.3g} exceeds "
                  f"{threshold:.3g}; the model assumes slowly varying forcing",
                  file=sys.stderr)
    make = BoundaryForcing.even_given if kind == "even" else BoundaryForcing.odd_given
    return make(alpha, beta, p=params.p)


def _stride(t_end: float, dt: float, rows: int) -> int:
    """Sample stride that leaves about `rows` rows of a run of t_end at dt."""
    _step_count(t_end, dt)   # rejects t_end <= 0 and dt <= 0 before dividing
    return max(1, int(t_end / dt / rows))


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
                   rows: list, extra_meta: dict, started: float) -> None:
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


# -- experiment runners: (cfg, params) -> (header, rows, extra manifest keys) --

def run_dispersion(cfg: dict, params) -> tuple:
    if cfg["k-steps"] < 1:
        raise ValueError(f"k-steps must be at least 1, got {cfg['k-steps']}")
    for key in ("k-min", "k-max"):
        if not math.isfinite(cfg[key]):
            raise ValueError(f"{key} must be finite, got {cfg[key]}")
    rows = [(k, she_growth_rate(k, params.r),
             measure_growth_rate(params, k, eps0=cfg["eps0"], T=cfg["t-fit"],
                                 dt=cfg["dt"]))
            for k in map(float, np.linspace(cfg["k-min"], cfg["k-max"], cfg["k-steps"]))]
    return ["k", "lambda_theory", "lambda_measured"], rows, {}


def run_compare(cfg: dict, params) -> tuple:
    ladder = cfg["r-ladder"]
    report = compare_model_vs_direct(CompareConfig(
        params=params, t_end=cfg["t-end"], n_samples=cfg["n-samples"],
        dt_model=cfg["dt-model"], dt_oracle=cfg["dt-oracle"],
        r_ladder=ladder, modulation=cfg["modulation"]))
    if ladder:
        rows = [(row["r"], row["terminal_sup_error"], row["normalised"])
                for row in report.metadata["ladder"]]
        return (["r", "terminal_sup_error", "normalised_error"], rows,
                {"convergence_slope": report.convergence_slope})
    rows = [(float(t), float(e)) for t, e in zip(report.times, report.sup_error)]
    return ["t", "sup_error"], rows, {"validity_flag": report.metadata["validity_flag"]}


def run_boundary_select(cfg: dict, params) -> tuple:
    fast, _ = boundary_mode_rates(params)   # fast = r - 8 g^2/h^2
    if cfg["t-end"] is None and not fast < 0:
        raise ValueError("the default horizon -10/fast needs a decaying wall mode, "
                         f"got fast rate r - 8 g^2/h^2 = {fast}; set --t-end")
    t_end = -10.0 / fast if cfg["t-end"] is None else cfg["t-end"]
    forcing = SignChoice(cfg["sign"]).wall(p=params.p)
    phase = math.radians(cfg["phase-deg"])
    a0 = np.full(params.n_elements, cfg["amp0"] * np.exp(1j * phase), complex)
    state = conjugate_state(0.0, a0)
    traj = run_model(state, params, forcing, t_end, cfg["dt"],
                     sample_stride=_stride(t_end, cfg["dt"], 200))
    rows = []
    for t, a1 in zip(traj.times, traj.a[:, 0]):
        mag = abs(a1) or 1.0
        rows.append((float(t), abs(a1.real) / mag, abs(a1.imag) / mag))
    meta: dict = {"t_end": t_end}
    if cfg["with-oracle"]:
        a1 = oracle_amplitudes(state, params, forcing, t_end)[-1, 0]
        meta["oracle_phase_deg"] = math.degrees(np.angle(a1))
    return ["t", "re_fraction", "im_fraction"], rows, meta


def run_boundary_equilibrium(cfg: dict, params) -> tuple:
    alpha, beta, t_end, dt = cfg["alpha"], cfg["beta"], cfg["t-end"], cfg["dt"]
    if cfg["right-forcing"] not in ("same", "zero"):
        raise ValueError("right-forcing must be 'same' or 'zero'")
    right = (0.0, 0.0) if cfg["right-forcing"] == "zero" else None
    forcing = BoundaryForcing.even_given(alpha, beta, p=params.p, right=right)
    state = conjugate_state(0.0, np.zeros(params.n_elements, complex))
    traj = run_model(state, params, forcing, t_end, dt,
                     sample_stride=_stride(t_end, dt, 400))
    predicted = boundary_equilibrium(params, alpha, beta)
    rows = [(float(t), float(a1.real), float(a1.imag), predicted)
            for t, a1 in zip(traj.times, traj.a[:, 0])]
    meta = {"predicted_re_a1": predicted,
            "final_re_a1": float(traj.a[-1, 0].real)}
    return ["t", "re_a1", "im_a1", "predicted_re_a1"], rows, meta


def run_boundary_profiles(cfg: dict, params) -> tuple:
    if cfg["profile-samples"] < 1:
        raise ValueError(f"profile-samples must be at least 1, got {cfg['profile-samples']}")
    sign = SignChoice(cfg["sign"])
    xs = np.linspace(-params.h / 2, params.h / 2, cfg["profile-samples"])
    table = boundary_profiles(params, sign, xs)
    header = ["x", "alpha_profile", "beta_profile",
              "alpha_profile_xx", "beta_profile_xx"]
    return header, list(zip(*(map(float, table[h2]) for h2 in header))), {}


def run_simulate_direct(cfg: dict, params) -> tuple:
    rng = np.random.default_rng(cfg["seed"])
    amp, t_end, dt = cfg["init-amp"], cfg["t-end"], cfg["dt"]
    if cfg["scheme"] not in ("spectral-etd", "bounded-imex"):
        raise ValueError(f"unknown scheme '{cfg['scheme']}': "
                         "expected 'spectral-etd' or 'bounded-imex'")
    spectral = cfg["scheme"] == "spectral-etd"
    # the spectral scheme runs a periodic domain, the bounded one has walls
    kind = cfg["kind"] or ("periodic" if spectral else "even")
    if spectral and kind != "periodic":
        raise ValueError(f"the spectral-etd scheme runs a periodic domain, got kind '{kind}'")
    if spectral:
        # a non-finite amp makes inf - inf here; the solver's start check rejects it
        with np.errstate(invalid="ignore"):
            grid = FieldGrid.sample(
                lambda x: amp * np.cos(x) + 0.1 * amp * rng.standard_normal(x.size),
                params, periodic=True)
    else:
        grid = FieldGrid.sample(lambda x: amp * np.cos(x), params, periodic=False)
    forcing = _forcing_from(cfg, params, kind, t_end, dt)
    out = (integrate_spectral(grid, params, t_end, dt) if spectral
           else integrate_bounded(grid, params, forcing, t_end, dt))
    rows = [(float(x), float(u)) for x, u in zip(out.x, out.u)]
    return ["x", "u"], rows, {"t_end": t_end, "kind": kind}


def run_simulate_model(cfg: dict, params) -> tuple:
    rng = np.random.default_rng(cfg["seed"])
    amp, N = cfg["init-amp"], params.n_elements
    if cfg["random-init"]:
        a0 = amp * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    else:
        a0 = np.full(N, amp, complex)
    forcing = _forcing_from(cfg, params, cfg["kind"], cfg["t-end"], cfg["dt"])
    traj = run_model(conjugate_state(0.0, a0), params, forcing, cfg["t-end"], cfg["dt"],
                     sample_stride=cfg["sample-stride"])
    header = ["t"] + [f"{part}_a{j}" for j in range(1, N + 1) for part in ("re", "im")]
    # a complex (nt, N) array viewed as float is (nt, 2N): re, im, re, im, ...
    return header, np.column_stack((traj.times, traj.a.view(float))).tolist(), {}


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
    args = build_parser().parse_args(argv)
    flag_cfg = {k: v for k, v in vars(args).items()
                if k not in ("experiment", "config")}
    try:
        file_cfg = {}
        if args.config:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
            if not isinstance(file_cfg, dict):
                raise ValueError("config file must hold a JSON object")
        cfg = resolve_config(args.experiment, file_cfg, flag_cfg)
        header, rows, extra_meta = RUNNERS[args.experiment](cfg, _params_from(cfg))
        _write_outputs(cfg, args.experiment, header, rows, extra_meta, started)
    except DivergenceError as exc:
        print(f"error: numerical divergence: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
