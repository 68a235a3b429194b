"""Closed-form predictions and the model-vs-oracle comparison harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import AmplitudeState, BoundaryForcing, FieldGrid, ModelParams, _step_count
from .amplitude_model import SignChoice, run_model
from .direct_solver import SpectralStepper, growth_symbol
from .subgrid import extract_amplitudes, lattice_field


def she_growth_rate(k: float, r: float) -> float:
    """Growth rate r - (1 - k^2)^2 of the periodic mode exp(ikx)."""
    return float(growth_symbol(k, r))


def lattice_dispersion(kappa, params: ModelParams):
    """Growth rate of the lattice mode a_j = exp(i kappa j h) under the
    linearised interior stencil: r + (4 g^2/h^2)(2 cos(kappa h) - 2).

    For kappa h -> 0 this approaches r - 4 g^2 kappa^2, the dispersion of
    the continuum Ginzburg-Landau equation with diffusion constant 4.
    """
    kappa = np.asarray(kappa, dtype=float)
    c = 4.0 * params.gamma ** 2 / params.h ** 2
    out = params.r + c * (2.0 * np.cos(kappa * params.h) - 2.0)
    return out if out.ndim else float(out)


def boundary_mode_rates(params: ModelParams, sign: SignChoice) -> tuple[float, float]:
    """(fast, slow) linear rates of the wall element, (r - 8/h^2, r).

    For the UPPER sign the fast rate applies to Re(a_1) and the slow rate
    to Im(a_1); the LOWER sign swaps the two components.
    """
    return params.r - 8.0 / params.h ** 2, params.r


def boundary_equilibrium(params: ModelParams, alpha: float, beta: float) -> float:
    """Predicted quasi-steady Re(a_1) = -h (alpha + beta) / 8 under constant
    even-derivative wall forcing (valid while 8/h^2 dominates r and the
    cubic term)."""
    return -params.h * (alpha + beta) / 8.0


def longwave_quadratic_coefficient(params: ModelParams,
                                   kappa_h_range: tuple[float, float] = (0.01, 0.2),
                                   n_points: int = 41) -> float:
    """Coefficient of kappa^2 in a {kappa^2, kappa^4} fit of the lattice
    dispersion minus r over small kappa h.  Approaches -4 g^2."""
    kh = np.linspace(*kappa_h_range, n_points)
    kappa = kh / params.h
    y = lattice_dispersion(kappa, params) - params.r
    basis = np.stack([kappa ** 2, kappa ** 4], axis=1)
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(coef[0])


@dataclass
class CompareConfig:
    """Configuration of a model-vs-oracle run on a periodic domain.

    a0 is the initial amplitude profile (b starts as its conjugate).  When
    r_ladder is set, one run per r is performed with the modulated profile
    a0_j = sqrt(r/3) (1 + modulation cos(2 pi j / N)) and horizon 10/r, and
    the convergence slope of the normalised terminal error is fitted.
    """

    params: ModelParams
    a0: Optional[np.ndarray] = None
    t_end: float = 10.0
    n_samples: int = 40
    dt_model: float = 0.1
    dt_oracle: float = 0.05
    r_ladder: Optional[Sequence[float]] = None
    modulation: float = 0.2
    validity_factor: float = 3.0


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
    return per * n_samples, per


def _run_pair(params: ModelParams, a0: np.ndarray, t_end: float,
              n_samples: int, dt_model: float, dt_oracle: float,
              validity_factor: float) -> ComparisonReport:
    N = params.n_elements
    state0 = AmplitudeState(0.0, np.asarray(a0, complex), np.conj(a0))
    n_steps, per = _sample_counts(t_end, dt_oracle, n_samples)
    m_steps, m_per = _sample_counts(t_end, dt_model, n_samples)

    # oracle seeded with the full reconstruction so it starts on the slow
    # manifold rather than merely near it
    grid = lattice_field(state0, params, periodic=True)
    stepper = SpectralStepper(len(grid.u), grid.length, params.r, t_end / n_steps)
    times = np.linspace(0.0, t_end, n_samples + 1)
    oracle = np.empty((n_samples + 1, N), dtype=complex)
    oracle[0] = extract_amplitudes(grid, params).a

    def record(i, v):
        if i % per == 0:
            g = FieldGrid(grid.x0, grid.dx, stepper.to_physical(v), True)
            oracle[i // per] = extract_amplitudes(g, params).a

    stepper.run(stepper.to_spectral(grid.u), n_steps, callback=record)

    traj = run_model(state0, params, BoundaryForcing.periodic(), t_end,
                     t_end / m_steps, sample_stride=m_per)
    model = traj.a
    if model.shape[0] != n_samples + 1:
        raise RuntimeError("model sampling misaligned")

    sup_error = np.max(np.abs(model - oracle), axis=1)
    amp_bound = validity_factor * math.sqrt(max(params.r, 1e-12))
    meta = {
        "r": params.r,
        "n_elements": N,
        "p": params.p,
        "m_samples": params.m_samples,
        "t_end": t_end,
        "dt_model": t_end / m_steps,
        "dt_oracle": t_end / n_steps,
        "validity_flag": bool(np.max(np.abs(oracle)) > amp_bound),
        "validity_bound": amp_bound,
    }
    return ComparisonReport(times, model, oracle, sup_error, metadata=meta)


def compare_model_vs_direct(config: CompareConfig) -> ComparisonReport:
    """Run the lattice model against the spectral oracle.

    Single-run mode fills the trajectory fields; ladder mode additionally
    fits the slope of log(normalised terminal error) against log(r) and
    stores the ladder table in the metadata.
    """
    if config.r_ladder is None:
        a0 = config.a0
        if a0 is None:
            a0 = modulated_profile(config.params, config.modulation)
        return _run_pair(config.params, a0, config.t_end, config.n_samples,
                         config.dt_model, config.dt_oracle,
                         config.validity_factor)

    if len(set(config.r_ladder)) < 2:
        raise ValueError("an r-ladder needs at least two distinct rungs, "
                         f"got {tuple(config.r_ladder)}")
    rows = []
    for r in config.r_ladder:
        params_r = replace(config.params, r=float(r))
        a0 = modulated_profile(params_r, config.modulation)
        report = _run_pair(params_r, a0, 10.0 / r, config.n_samples,
                           config.dt_model, config.dt_oracle,
                           config.validity_factor)
        scale = math.sqrt(r / 3.0)
        rows.append((float(r), float(report.sup_error[-1]),
                     float(report.sup_error[-1] / scale)))
    rs = np.array([row[0] for row in rows])
    errs = np.array([row[2] for row in rows])
    slope = float(np.polyfit(np.log(rs), np.log(errs), 1)[0])
    report.convergence_slope = slope
    report.metadata["ladder"] = [
        {"r": r, "terminal_sup_error": e, "normalised": en}
        for r, e, en in rows]
    return report
