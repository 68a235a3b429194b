"""Experiment harness: config ingestion, orchestration, CSV/manifest output.

Each experiment is one runner in `RUNNERS`, called as
``run_<x>(cfg, params) -> (header, rows, extra_meta)``: it gets the
resolved configuration (every key read and checked by its row of `KEYS`)
and the `ModelParams` built from it, and returns the CSV header, the rows
and the keys it adds to the manifest.  `main` is the one place that reads
the ``--config`` file, resolves the configuration, builds the parameters,
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
from typing import NamedTuple

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
from .direct_solver import _fit_steps, integrate_bounded, integrate_spectral, measure_growth_rate
from .subgrid import boundary_profiles

_FMT = "%.12g"


class Check(NamedTuple):
    """What a key's values are: the type each value reads as (bool, int,
    float, str, or tuple for a list of numbers) and the (test, wording)
    pairs the read value must pass.  Its --help line names both."""

    kind: type
    tests: tuple = ()


def _range(lo, hi, kind=float):
    return Check(kind, FINITE.tests + ((lambda v: v >= lo, f"at least {lo:,}"),
                                       (lambda v: v <= hi, f"at most {hi:,}")))


def _choice(*values):
    return Check(str, ((values.__contains__, "one of " + ", ".join(values)),))


# the vocabulary; a count costs at least a step's work, so none may pass the
# step budget, and a count near 2**63 would fail inside numpy
SWITCH, NUMBER, TEXT = Check(bool), Check(float), Check(str)
WHOLE = Check(int, ((lambda v: v >= 0, "at least 0"),))   # an rng seed
FINITE = Check(float, ((math.isfinite, "finite"),))
POSITIVE = Check(float, FINITE.tests + ((lambda v: v > 0, "positive"),))
NON_NEGATIVE = Check(float, ((lambda v: v >= 0, "a non-negative number"),))
COUNT = Check(int, _range(1, _MAX_STEPS).tests[1:])   # an int is finite: no FINITE test
# |r| <= 10: the amplitude model expands in small r, and every experiment runs
# without a numpy warning there; dispersion's fit takes log(0) from r = -150
_R_BOUNDS = (-10, 10)

# key -> (default, check); a default given as {experiment: default} names the
# experiments that take the key, any other default is shared by all of them.
# A default None is derived from other keys until the key is given.
KEYS = {
    "r": (0.0, _range(*_R_BOUNDS)),
    "gamma": (1.0, NUMBER),
    "p": (1, COUNT),
    "n-elements": (8, COUNT),
    "m-samples": (32, COUNT),
    "seed": (0, WHOLE),
    "output-dir": ("runs", TEXT),
    # the wavenumbers measure_growth_rate resolves: mode 1 on its 64 periods
    # up to mode 512 // 3 on one period
    "k-min": ({"dispersion": 0.5}, _range(1 / 64, 170)),
    "k-max": ({"dispersion": 1.5}, _range(1 / 64, 170)),
    "k-steps": ({"dispersion": 21}, COUNT),
    "eps0": ({"dispersion": 1e-6}, NUMBER),
    "t-fit": ({"dispersion": 5.0}, NUMBER),
    "r-ladder": ({"compare": None}, _range(*_R_BOUNDS, kind=tuple)),
    "t-end": ({"compare": None, "boundary-select": None, "boundary-equilibrium": 300.0,
               "simulate-direct": 10.0, "simulate-model": 100.0}, NUMBER),
    # None: dispersion fits each k at the step its answer needs (measure_growth_rate)
    "dt": ({"dispersion": None, "boundary-select": 0.05, "boundary-equilibrium": 0.05,
            "simulate-direct": None, "simulate-model": 0.05}, NUMBER),
    "n-samples": ({"compare": 40}, COUNT),
    # None: the largest step each run allows, model and oracle (analysis.CompareConfig)
    "dt-model": ({"compare": None}, POSITIVE),
    "dt-oracle": ({"compare": None}, POSITIVE),
    # a start within [0, 2] sqrt(r/3), the near-equilibrium profile
    "modulation": ({"compare": 0.2}, _range(-1, 1)),
    "sign": ({"boundary-select": "upper", "boundary-profiles": "upper"},
             _choice(*(s.value for s in SignChoice))),
    "amp0": ({"boundary-select": 0.05}, NUMBER),
    "phase-deg": ({"boundary-select": 45.0}, _range(-360, 360)),
    "with-oracle": ({"boundary-select": False}, SWITCH),
    "alpha": ({"boundary-equilibrium": 0.1, "simulate-direct": 0.0, "simulate-model": 0.0}, NUMBER),
    "beta": ({"boundary-equilibrium": 0.0, "simulate-direct": 0.0, "simulate-model": 0.0}, NUMBER),
    "right-forcing": ({"boundary-equilibrium": "same"}, _choice("same", "zero")),
    "profile-samples": ({"boundary-profiles": 161}, COUNT),
    "scheme": ({"simulate-direct": "spectral-etd"}, _choice("spectral-etd", "bounded-imex")),
    "kind": ({"simulate-direct": None, "simulate-model": "periodic"},
             _choice("periodic", "even", "odd")),
    "alpha-omega": ({"simulate-direct": 0.0, "simulate-model": 0.0}, FINITE),
    "init-amp": ({"simulate-direct": 0.01, "simulate-model": 0.05}, NUMBER),
    "accel-warn": ({"simulate-direct": 1.0, "simulate-model": 1.0}, NON_NEGATIVE),
    "random-init": ({"simulate-model": False}, SWITCH),
    "sample-stride": ({"simulate-model": 10}, COUNT),
}


def experiment_keys(experiment: str) -> dict:
    """key -> (default, check) of each key the experiment takes."""
    return {key: (default[experiment] if isinstance(default, dict) else default, check)
            for key, (default, check) in KEYS.items()
            if not isinstance(default, dict) or experiment in default}


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
    for name in RUNNERS:
        sub = subs.add_parser(name, prog=f"shlattice {name}")
        sub.add_argument("--config", help="JSON config file (flags override it)")
        for key, (default, check) in experiment_keys(name).items():
            words = ", ".join([_READ[check.kind][1]] + [must for _, must in check.tests])
            sub.add_argument("--" + key, dest=key, help=f"{words} (default: {default})",
                             default=None, action="store_true" if check is SWITCH else "store")
    return parser


_WORDS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _whole(value) -> int:
    # an int or a string of digits reads exactly, where a float would round
    exact = isinstance(value, int) or str(value).strip().lstrip("+-").isdigit()
    if not (exact or float(value).is_integer()):
        raise ValueError(value)
    return int(value) if exact else int(float(value))


# kind -> (parser, what its values are); a tuple's items read as floats
_READ = {bool: (lambda v: _WORDS[str(v).lower()], "true or false"), int: (_whole, "a whole number"),
         float: (float, "a number"), str: (str, "text"),
         tuple: (None, "a comma string or a list of numbers")}


def _read_value(key: str, value, default, check: Check):
    """A flag string or config value of key, read as its check's type and
    passed through its tests; None, or "" for a single value, is the
    default.  ValueError names the key and what it takes."""
    if value is None or value == "" and check.kind is not tuple:
        return default
    if check.kind is tuple:
        items = value.split(",") if isinstance(value, str) else value
        if not isinstance(items, list) or None in items:
            raise ValueError(f"{key} must be {_READ[tuple][1]}, got {value!r}")
        return tuple(_read_value(key, v, None, Check(float, check.tests)) for v in items if v != "")
    if isinstance(value, (list, dict)):
        raise ValueError(f"{key} takes one value, got {value!r}")
    if isinstance(value, bool) and check.kind is not bool:
        raise ValueError(f"{key} is not a switch, got {value!r}")
    parse, words = _READ[check.kind]
    try:
        got = parse(value)
    except (KeyError, ValueError, OverflowError):
        raise ValueError(f"{key} must be {words}, got {value!r}") from None
    for test, must in check.tests:
        if not test(got):
            raise ValueError(f"{key} must be {must}, got {got!r}")
    return got


def resolve_config(experiment: str, file_cfg: dict, flag_cfg: dict) -> dict:
    """Layer defaults < config file < flags, rejecting unknown keys and
    reading each value through its key's check."""
    keys = experiment_keys(experiment)
    if file_cfg.get("experiment", experiment) != experiment:
        raise ValueError(
            f"config file experiment '{file_cfg['experiment']}' does not match '{experiment}'")
    unknown = [key for key in file_cfg if key not in keys and key != "experiment"]
    if unknown:
        raise ValueError(f"unknown config key: '{unknown[0]}'")
    flags = {k: v for k, v in flag_cfg.items() if v is not None}
    return {key: _read_value(key, flags.get(key, file_cfg.get(key)), default, check)
            for key, (default, check) in keys.items()}


def _forcing_from(cfg: dict, params, kind: str, t_end: float,
                  dt: float | None) -> BoundaryForcing:
    """Forcing of the given kind: periodic, which takes no wall signals, or
    walls with constant beta and with alpha, or alpha cos(alpha-omega t)
    when alpha-omega is set.  The model is only valid for slowly varying
    signals, so it warns when the peak acceleration |alpha| omega^2 of that
    signal exceeds accel-warn, once the step rule has accepted the run over
    [0, t_end] in steps of at most dt (None: the solver's own step)."""
    amp, beta, omega = cfg["alpha"], cfg["beta"], cfg["alpha-omega"]
    if kind == "periodic":
        if amp or beta or omega:
            raise ValueError("a periodic domain has no walls: alpha, beta and alpha-omega "
                             f"must be 0, got {amp:g}, {beta:g} and {omega:g}")
        return BoundaryForcing.periodic()
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
    T = cfg["t-fit"]
    ks = list(map(float, np.linspace(cfg["k-min"], cfg["k-max"], cfg["k-steps"])))
    rows = [(k, she_growth_rate(k, params.r),
             measure_growth_rate(params, k, eps0=cfg["eps0"], T=T, dt=cfg["dt"])) for k in ks]
    # the manifest names the step each fit took
    return (["k", "lambda_theory", "lambda_measured"], rows,
            {"dt_fit": [T / _fit_steps(params.r, k, T, cfg["dt"]) for k in ks]})


def run_compare(cfg: dict, params) -> tuple:
    ladder = cfg["r-ladder"]
    report = compare_model_vs_direct(CompareConfig(
        params=params, t_end=cfg["t-end"], n_samples=cfg["n-samples"], dt_model=cfg["dt-model"],
        dt_oracle=cfg["dt-oracle"], r_ladder=ladder, modulation=cfg["modulation"]))
    meta, steps = report.metadata, ("dt_model", "dt_oracle")   # the steps each run took
    if ladder:
        rows = [(row["r"], row["terminal_sup_error"], row["normalised"]) for row in meta["ladder"]]
        return (["r", "terminal_sup_error", "normalised_error"], rows,
                {"convergence_slope": report.convergence_slope,
                 **{key: [row[key] for row in meta["ladder"]] for key in steps}})
    rows = [(float(t), float(e)) for t, e in zip(report.times, report.sup_error)]
    return ["t", "sup_error"], rows, {key: meta[key] for key in ("validity_flag", *steps)}


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
    sign = SignChoice(cfg["sign"])
    xs = np.linspace(-params.h / 2, params.h / 2, cfg["profile-samples"])
    table = boundary_profiles(params, sign, xs)
    header = ["x", "alpha_profile", "beta_profile",
              "alpha_profile_xx", "beta_profile_xx"]
    return header, list(zip(*(map(float, table[h2]) for h2 in header))), {}


def run_simulate_direct(cfg: dict, params) -> tuple:
    rng = np.random.default_rng(cfg["seed"])
    amp, t_end, dt = cfg["init-amp"], cfg["t-end"], cfg["dt"]
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
    a0 = (amp * (rng.standard_normal(N) + 1j * rng.standard_normal(N)) if cfg["random-init"]
          else np.full(N, amp, complex))
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
    try:
        file_cfg = json.loads(Path(args.config).read_text()) if args.config else {}
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        cfg = resolve_config(args.experiment, file_cfg, vars(args))
        params = make_params(r=cfg["r"], gamma=cfg["gamma"], p=cfg["p"],
                             n_elements=cfg["n-elements"], m_samples=cfg["m-samples"])
        header, rows, extra_meta = RUNNERS[args.experiment](cfg, params)
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
