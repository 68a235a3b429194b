"""Closed-form predictions, the oracle in amplitude space and the
model-vs-oracle comparison harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import (AmplitudeState, BoundaryForcing, FieldGrid, ForcingKind, ModelParams,
                   _check_budget, _step_count)
from .amplitude_model import _derived_dt, run_model
from .direct_solver import BoundedStepper, SpectralStepper, _default_dt, growth_symbol
from .subgrid import extract_amplitudes, lattice_field


def she_growth_rate(k: float, r: float) -> float:
    """Growth rate r - (1 - k^2)^2 of the periodic mode exp(ikx)."""
    return float(growth_symbol(k, r))


def lattice_dispersion(kappa, params: ModelParams):
    """Growth rate of the lattice mode a_j = exp(i kappa j h) under the
    linearised interior stencil: r + (4 g^2/h^2)(2 cos(kappa h) - 2).

    For kappa h -> 0 this approaches r - 4 g^2 kappa^2, the dispersion of
    the continuum Ginzburg-Landau equation with diffusion constant 4.  The
    coupling is written here from the paper, apart from the model's
    `_Coefficients`: criterion 3 holds it to the continuum limit, and a
    test that linearises `model_rhs` on Bloch modes holds the model to it.
    """
    kappa = np.asarray(kappa, dtype=float)
    c = 4.0 * params.gamma ** 2 / params.h ** 2
    out = params.r + c * (2.0 * np.cos(kappa * params.h) - 2.0)
    return out if out.ndim else float(out)


def boundary_mode_rates(params: ModelParams) -> tuple[float, float]:
    """(fast, slow) linear rates of the wall element, (r - 8 g^2/h^2, r).

    Walls with even data apply the fast rate to Re(a_1) and the slow rate
    to Im(a_1); walls with odd data swap the two components.  Written from
    the paper, apart from the model's `_Coefficients`, so that criterion 7
    holds the model's wall rows to it.
    """
    return params.r - 8.0 * params.gamma ** 2 / params.h ** 2, params.r


def boundary_equilibrium(params: ModelParams, alpha: float, beta: float) -> float:
    """Predicted quasi-steady Re(a_1) = -h (alpha + beta) / 8 under constant
    even-derivative wall forcing (valid while 8/h^2 dominates r and the
    cubic term).  Written from the paper, apart from the model's
    `_Coefficients`, so that the model's forced walls are held to it."""
    return -params.h * (alpha + beta) / 8.0


def longwave_quadratic_coefficient(params: ModelParams,
                                   kappa_h_range: tuple[float, float] = (0.01, 0.2)) -> float:
    """Coefficient of kappa^2 in a {kappa^2, kappa^4} fit of the lattice
    dispersion minus r at 41 points of small kappa h.  Approaches -4 g^2."""
    kh = np.linspace(*kappa_h_range, 41)
    kappa = kh / params.h
    y = lattice_dispersion(kappa, params) - params.r
    basis = np.stack([kappa ** 2, kappa ** 4], axis=1)
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(coef[0])


# a run is flagged as outside the model's validity once the oracle's peak
# amplitude passes this multiple of sqrt(r)
_VALIDITY_FACTOR = 3.0


@dataclass
class CompareConfig:
    """Configuration of a model-vs-oracle run on a periodic domain.

    a0 is the initial amplitude profile (b starts as its conjugate), by
    default the modulated profile a0_j = sqrt(r/3) (1 + modulation
    cos(2 pi j / N)).  When r_ladder is set, one run per r is performed from
    that profile at each r (so a0 must stay None), and the convergence
    slope of the normalised terminal error is fitted.  t_end is the horizon
    of every run; None means 10/r for each, which needs r > 0.

    Each solver steps, unless given a step, at the largest one the run
    allows, in whole steps per sample; the steps taken are
    metadata["dt_model"] and metadata["dt_oracle"] (per row of a ladder).
    Both count r and the cubic at the amplitude bound A = max(max|a0|,
    sqrt(r/3)) of these periodic, unforced, real-sector runs (a maximum
    principle of the lattice; see `amplitude_model._derived_dt`).

    The model's step is `amplitude_model._derived_dt`, 0.5 * 2.785 / rho;
    criterion 4's rungs step at 2.08, 2.5 and 3.125.  It is a stability
    bound, not an accuracy one: from an explicit a0 that decays fast,
    a0 = full(2, sqrt(4/3)) at r = -4, gamma = 0 and t_end = 7, the model
    sits 1.25e-3 of its peak |a| off a quarter-step run.  compare's own
    start does not decay so (it is zero for r <= 0).

    The oracle's step is min(1, S L / 3 U^2), with U = 2 A the bound on the
    seeded field, L = 4.9 the limit on 3 U^2 dt within which ETDRK4 stays
    stable (measured: 4.97 at least, over r in [0.1, 10], N = 4 and 8,
    modulation 0, 0.2 and +-1) and S = 0.5.  The cap 1.0, twenty times the
    oracle's own 0.05, is the step wherever 3 U^2 <= 2.45, criterion 4's
    rungs among them: the amplitudes there stay within 1e-3 sqrt(r/3) of a
    converged run, and criterion 4's terminal errors within 0.02%, far
    below the model errors (1e-6 to 1e-5) they measure.  At r = 10, where
    a step of 1.0 diverges, it is about 0.04.
    """

    params: ModelParams
    a0: Optional[np.ndarray] = None
    t_end: Optional[float] = None
    n_samples: int = 40
    dt_model: Optional[float] = None
    dt_oracle: Optional[float] = None
    r_ladder: Optional[Sequence[float]] = None
    modulation: float = 0.2


@dataclass
class ComparisonReport:
    """Amplitude trajectories of both solvers and their sup-norm gap."""

    times: np.ndarray
    model_amplitudes: np.ndarray
    oracle_amplitudes: np.ndarray
    sup_error: np.ndarray
    convergence_slope: float = math.nan
    metadata: dict = field(default_factory=dict)


def modulated_profile(params: ModelParams, modulation: float) -> np.ndarray:
    """Slowly modulated near-equilibrium profile sqrt(r/3)(1 + m cos(2 pi j/N))."""
    j = np.arange(params.n_elements)
    base = math.sqrt(max(params.r, 0.0) / 3.0)
    return base * (1.0 + modulation * np.cos(2.0 * np.pi * j / params.n_elements)) \
        * np.ones(params.n_elements, dtype=complex)


def _sample_counts(t_end: float, dt: float, n_samples: int) -> tuple[int, int]:
    """(steps, steps per sample) for n_samples equal samples, each covered
    by whole steps of at most dt."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    per = _step_count(t_end, dt * n_samples)
    _check_budget(per * n_samples, t_end, dt)
    return per * n_samples, per


def oracle_amplitudes(state: AmplitudeState, params: ModelParams, forcing: BoundaryForcing,
                      t_end: float, n_samples: int = 1, dt: Optional[float] = None) -> np.ndarray:
    """(n_samples + 1, N) amplitudes of the oracle that forcing.kind picks,
    the spectral one on a periodic domain and the bounded one for walls,
    at n_samples + 1 equal times from state.t to t_end, in whole steps of
    at most dt (the oracle's own when None) per sample.

    The oracle is seeded with the full reconstruction `lattice_field`, so
    it starts on the slow manifold rather than merely near it.  Fields are
    formed only at the kept samples, the last one from the run's result.
    """
    periodic = forcing.kind is ForcingKind.PERIODIC
    grid = lattice_field(state, params, periodic=periodic)
    span = t_end - state.t
    n_steps, per = _sample_counts(span, _default_dt(grid) if dt is None else dt, n_samples)
    out = np.empty((n_samples + 1, params.n_elements), dtype=complex)
    out[0] = extract_amplitudes(grid, params).a

    def amplitudes(u):
        return extract_amplitudes(FieldGrid(grid.x0, grid.dx, u, periodic), params).a

    def record(i, v):
        if i % per == 0 and i < n_steps:
            out[i // per] = amplitudes(stepper.to_physical(v))

    callback = record if n_samples > 1 else None
    if periodic:
        stepper = SpectralStepper(len(grid.u), grid.length, params.r, span / n_steps)
        v = stepper.run(stepper.to_spectral(grid.u), n_steps, callback=callback)
        out[-1] = amplitudes(stepper.to_physical(v))
    else:
        stepper = BoundedStepper(grid, params, forcing, span / n_steps)
        out[-1] = amplitudes(stepper.run(grid.u, state.t, n_steps, callback=callback))
    return out


# The oracle's derived step takes the share S = 0.5 of ETDRK4's limit L = 4.9
# on 3 max|u|^2 dt, measured at 4.97 from compare's seeded fields (CompareConfig)
_ORACLE_SHARE = 0.5 * 4.9


def _oracle_dt(params: ModelParams, a0: np.ndarray) -> float:
    """The oracle step a run from a0 allows: min(1, S L / 3 U^2), with U =
    2 max(max|a0|, sqrt(r/3)) the bound on the seeded field (CompareConfig)."""
    cubic = 12.0 * max(float(np.max(np.abs(a0))) ** 2, max(params.r, 0.0) / 3.0)
    return 1.0 if cubic <= _ORACLE_SHARE else _ORACLE_SHARE / cubic


def _run_pair(params: ModelParams, a0: np.ndarray, t_end: float, n_samples: int,
              dt_model: Optional[float], dt_oracle: Optional[float]) -> ComparisonReport:
    state0 = AmplitudeState(0.0, np.asarray(a0, complex), np.conj(a0))
    periodic = BoundaryForcing.periodic()
    dt_model = _derived_dt(params, state0.a) if dt_model is None else dt_model
    dt_oracle = _oracle_dt(params, state0.a) if dt_oracle is None else dt_oracle
    m_steps, m_per = _sample_counts(t_end, dt_model, n_samples)
    o_steps, _ = _sample_counts(t_end, dt_oracle, n_samples)
    oracle = oracle_amplitudes(state0, params, periodic, t_end, n_samples, dt_oracle)
    model = run_model(state0, params, periodic, t_end, t_end / m_steps, sample_stride=m_per).a
    sup_error = np.max(np.abs(model - oracle), axis=1)
    bound = _VALIDITY_FACTOR * math.sqrt(max(params.r, 1e-12))
    return ComparisonReport(np.linspace(0.0, t_end, n_samples + 1), model, oracle, sup_error,
                            metadata={"validity_flag": bool(np.max(np.abs(oracle)) > bound),
                                      "dt_model": t_end / m_steps, "dt_oracle": t_end / o_steps})


def compare_model_vs_direct(config: CompareConfig) -> ComparisonReport:
    """Run the lattice model against the spectral oracle.

    Single-run mode fills the trajectory fields; ladder mode runs each rung,
    returns the report of the last one, and additionally fits the slope of
    log(normalised terminal error) against log(r) and stores the ladder
    table in the metadata.
    """
    ladder, t_end = config.r_ladder, config.t_end
    if ladder is not None and config.a0 is not None:
        raise ValueError("an r-ladder starts each rung from its modulated profile, so it takes no a0")
    if ladder is not None and len(set(ladder)) < 2:
        raise ValueError(f"an r-ladder needs at least two distinct rungs, got {tuple(ladder)}")
    rungs = [config.params.r] if ladder is None else ladder
    # a run without t_end goes to 10/r, and a ladder's error scale sqrt(r/3)
    # needs r > 0 whatever t_end is: every rung is checked before any runs
    if t_end is None or ladder is not None:
        for r in rungs:
            if not r > 0:
                raise ValueError(f"the horizon 10/r needs r > 0, got r = {r}")
    reports = []
    for r in rungs:
        params_r = replace(config.params, r=float(r))
        a0 = modulated_profile(params_r, config.modulation) if config.a0 is None else config.a0
        reports.append(_run_pair(params_r, a0, 10.0 / r if t_end is None else t_end,
                                 config.n_samples, config.dt_model, config.dt_oracle))
    report = reports[-1]
    if ladder is None:
        return report
    rows = [{"r": float(r), "terminal_sup_error": float(rep.sup_error[-1]),
             "normalised": float(rep.sup_error[-1] / math.sqrt(r / 3.0)),
             "dt_model": rep.metadata["dt_model"], "dt_oracle": rep.metadata["dt_oracle"]}
            for r, rep in zip(ladder, reports)]
    rs, errs = (np.array([row[key] for row in rows]) for key in ("r", "normalised"))
    report.convergence_slope = float(np.polyfit(np.log(rs), np.log(errs), 1)[0])
    report.metadata["ladder"] = rows
    return report
