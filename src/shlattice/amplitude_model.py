"""Lattice ODEs for the complex roll amplitudes.

Interior elements obey

    da_j/dt = r a_j + (4 g^2/h^2) (a_{j+1} - 2 a_j + a_{j-1}) - 3 g^2 a_j^2 b_j
    db_j/dt = r b_j + (4 g^2/h^2) (b_{j+1} - 2 b_j + b_{j-1}) - 3 g^2 a_j b_j^2

with g the coupling parameter (g = 1 is the physical model).  At g = 1 and
b = conj(a) the a-equation is the discrete Ginzburg-Landau equation with
diffusion constant 4 and Landau constant 3.

A wall at x = -h/2 replaces the j = 1 stencil.  With s = +1 when the wall
prescribes (u, u_xx) and s = -1 when it prescribes (u_x, u_xxx):

    da_1/dt = r a_1 + (4 g^2/h^2) (a_2 - 2 a_1 - s b_1) - 3 a_1^2 b_1
              - s (g^2/h) (1 - i) (alpha + beta)
    db_1/dt = r b_1 + (4 g^2/h^2) (b_2 - 2 b_1 - s a_1) - 3 a_1 b_1^2
              - s (g^2/h) (1 + i) (alpha + beta)

The a/b cross coupling pins the roll phase: for s = +1 the real part of
a_1 decays at rate r - 8/h^2 while the imaginary part keeps rate r, so
walls prescribing even derivatives lock the rolls onto sin(x); s = -1
swaps the roles and locks onto cos(x).  A right wall is the mirror image
under x -> -x, which swaps the roles of a and b.

Every right-hand side here is one `_LatticeKernel`: the wall is a ghost
neighbour -s b_1 and a cubic weight 3 instead of 3 g^2, so interior and
wall rows share one slice-based stencil.  Because the b-equation is the
conjugate of the a-equation when b = conj(a), `run_model` integrates a
alone for states in that real sector.  `run_model` takes its step count
from `core._step_count` and steps the kernel's RK4 through the loop
`core._integrate` that the direct solvers share, with a runaway bound of
1e6 on |a| and |b|.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    AmplitudeState,
    BoundaryForcing,
    ForcingKind,
    ModelParams,
    _integrate,
    _positive_dt,
    _resolve_neighbours,
    _step_count,
)

_BLOWUP = 1e6


class SignChoice(Enum):
    """Which sign alternative the wall stencil uses.

    UPPER: even-derivative wall data (u, u_xx given), sin-locking.
    LOWER: odd-derivative wall data (u_x, u_xxx given), cos-locking.
    """

    UPPER = "upper"
    LOWER = "lower"

    @property
    def factor(self) -> float:
        return 1.0 if self is SignChoice.UPPER else -1.0

    @classmethod
    def from_kind(cls, kind: ForcingKind) -> "SignChoice":
        if kind is ForcingKind.EVEN_GIVEN:
            return cls.UPPER
        if kind is ForcingKind.ODD_GIVEN:
            return cls.LOWER
        raise ValueError(f"no sign choice for forcing kind {kind}")


def _check_boundary_args(state: AmplitudeState, forcing: BoundaryForcing,
                         sign: SignChoice) -> None:
    if state.n < 2:
        raise ValueError("boundary stencils need at least 2 elements")
    if forcing.kind is ForcingKind.PERIODIC:
        raise ValueError("boundary stencils reject periodic forcing")
    if SignChoice.from_kind(forcing.kind) is not sign:
        raise ValueError(
            f"forcing kind {forcing.kind} does not match sign choice {sign}")


class _LatticeKernel:
    """Right-hand side of one lattice, precomputed once per run.

    With partner y (b for a, a for b) an amplitude row x evolves by
    dx_j/dt = r x_j + c (x_{j+1} - 2 x_j + x_{j-1}) - w_j x_j^2 y_j, less
    the wall drives at the ends.  Neighbours come from a ghost-padded
    buffer: the periodic wrap, or -s y at a wall, where the cubic weight w
    drops from 3 g^2 to 3.  The b-equation conjugates the drive phases.
    """

    def __init__(self, n: int, r: float, c: float, cubic: float,
                 sign: float = 0.0, walls: Optional[tuple] = None, g2_h: float = 0.0):
        # 0-d arrays scale a short array faster than Python scalars do,
        # with the same complex arithmetic
        self.r, self.c, self.two = (np.array(v, dtype=complex) for v in (r, c, 2.0))
        self.sign, self.walls, self.g2_h, self.dt = sign, walls, g2_h, None
        self.pad = np.empty(n + 2, dtype=complex)
        self.mid, self.up, self.down = self.pad[1:-1], self.pad[2:], self.pad[:-2]
        # ghosts (0, N+1) take x at (N-1, 0) to wrap, or -s y at (0, N-1)
        step = max(n - 1, 1)
        self.ghosts, self.source = self.pad[::n + 1], slice(None, None, step if sign else -step)
        self.ghost_factor = np.array(-sign if sign else 1.0, dtype=complex)
        self.cubic = np.full(n, cubic, dtype=complex)
        if sign:
            self.cubic[::step], self.phase = 3.0, sign * (1.0 - 1.0j)

    def drives(self, t: float) -> Optional[list[float]]:
        """Left and right wall drives (g^2/h)(alpha + beta) at time t."""
        return None if self.walls is None else [
            self.g2_h * (f.alpha_at(t) + f.beta_at(t)) for f in self.walls]

    def __call__(self, x: np.ndarray, y: np.ndarray, drives=None,
                 conj: bool = False) -> np.ndarray:
        """dx/dt given the partner y; conj selects the b-equation's phases."""
        self.mid[...] = x
        np.multiply((y if self.sign else x)[self.source], self.ghost_factor, out=self.ghosts)
        out = (self.r * x + self.c * (self.up - self.two * x + self.down)
               - self.cubic * (x * x) * y)
        if drives is not None:
            phase = self.phase.conjugate() if conj else self.phase
            out[0] -= phase * drives[0]
            out[-1] -= phase.conjugate() * drives[1]
        return out

    def rhs(self, x: np.ndarray, drives) -> np.ndarray:
        """Derivative of x = a in the real sector, or of x = (a, b)."""
        if x.ndim == 1:
            return self(x, np.conj(x), drives)
        return np.array((self(x[0], x[1], drives), self(x[1], x[0], drives, True)))

    def rk4(self, t: float, x: np.ndarray, dt: float) -> np.ndarray:
        """One classical RK4 step, with the drives at the stage times."""
        if dt != self.dt:
            self.dt = dt
            self.steps = tuple(np.array(v, dtype=complex) for v in (dt / 2, dt, dt / 6))
        half, full, sixth = self.steps
        mid = self.drives(t + dt / 2)
        k1 = self.rhs(x, self.drives(t))
        k2 = self.rhs(x + half * k1, mid)
        k3 = self.rhs(x + half * k2, mid)
        k4 = self.rhs(x + full * k3, self.drives(t + dt))
        return x + sixth * (k1 + self.two * k2 + self.two * k3 + k4)


def _kernel(state: AmplitudeState, params: ModelParams, forcing: BoundaryForcing,
            forcing_right: Optional[BoundaryForcing] = None) -> _LatticeKernel:
    if state.n != params.n_elements:
        raise ValueError(
            f"state has {state.n} elements but params expect {params.n_elements}")
    g2 = params.gamma ** 2
    args = (params.n_elements, params.r, 4.0 * g2 / params.h ** 2, 3.0 * g2)
    if forcing.kind is ForcingKind.PERIODIC:
        return _LatticeKernel(*args)
    right = forcing if forcing_right is None else forcing_right
    if right.kind is not forcing.kind:
        raise ValueError(f"right wall kind {right.kind} does not match {forcing.kind}")
    return _LatticeKernel(*args, SignChoice.from_kind(forcing.kind).factor,
                          (forcing, right), g2 / params.h)


def _element_rhs(state: AmplitudeState, params: ModelParams,
                 forcing: BoundaryForcing, j, forcing_right=None):
    kernel = _kernel(state, params, forcing, forcing_right)
    da, db = kernel.rhs(np.array((state.a, state.b)), kernel.drives(state.t))
    return da[j], db[j]


def interior_rhs(state: AmplitudeState, params: ModelParams, j: int,
                 periodic: bool = False) -> tuple[complex, complex]:
    """Time derivative (da_j/dt, db_j/dt) of an interior element."""
    _resolve_neighbours(state.n, j, periodic)
    # rows with both neighbours are the same in every kernel
    return _element_rhs(state, params, BoundaryForcing.periodic(), j)


def left_boundary_rhs(state: AmplitudeState, params: ModelParams,
                      forcing: BoundaryForcing,
                      sign: SignChoice) -> tuple[complex, complex]:
    """Time derivative of the leftmost element, wall at x = -h/2."""
    _check_boundary_args(state, forcing, sign)
    return _element_rhs(state, params, forcing, 0)


def right_boundary_rhs(state: AmplitudeState, params: ModelParams,
                       forcing: BoundaryForcing,
                       sign: SignChoice) -> tuple[complex, complex]:
    """Time derivative of the rightmost element, wall at x = x_N + h/2.

    Mirror image of the left wall under x -> -x, which exchanges a and b
    and reverses the lattice.
    """
    _check_boundary_args(state, forcing, sign)
    return _element_rhs(state, params, forcing, -1)


def model_rhs(state: AmplitudeState, params: ModelParams,
              forcing: BoundaryForcing,
              forcing_right: Optional[BoundaryForcing] = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Full lattice derivative.

    Periodic forcing wraps every stencil.  Otherwise the first and last
    elements use the wall stencils and the rest the interior one (the
    j = 2 element needs no special treatment).  forcing_right, when given,
    supplies different signals for the right wall; by default the right
    wall mirrors the left one with the same signals.
    """
    return _element_rhs(state, params, forcing, slice(None), forcing_right)


def gle_rhs(a: np.ndarray, r: float, c: float, d: float, h: float) -> np.ndarray:
    """Discrete Ginzburg-Landau right-hand side on a periodic lattice:

        r a_j + (c/h^2)(a_{j+1} - 2 a_j + a_{j-1}) - d |a_j|^2 a_j
    """
    a = np.asarray(a, dtype=complex)
    return _LatticeKernel(len(a), r, c / h ** 2, d).rhs(a, None)


def reality_check(state: AmplitudeState) -> float:
    """Distance from the real-field sector, max_j |b_j - conj(a_j)|."""
    return float(np.max(np.abs(state.b - np.conj(state.a)))) if state.n else 0.0


def max_stable_dt(params: ModelParams) -> float:
    """Explicit-stepping bound 0.1 h^2/8, a 10x margin on the fast wall mode."""
    return 0.1 * params.h ** 2 / 8.0


def _check_dt(dt: float, params: ModelParams) -> None:
    if _positive_dt(dt) > max_stable_dt(params) * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt} exceeds the stability margin {max_stable_dt(params):.4g}")


def rk4_step(state: AmplitudeState, params: ModelParams,
             forcing: BoundaryForcing, dt: float,
             forcing_right: Optional[BoundaryForcing] = None) -> AmplitudeState:
    """One classical fourth-order Runge-Kutta step.

    Time-dependent forcing is evaluated at the stage times, which assumes
    slowly varying signals (the model itself is only valid in that regime).
    """
    _check_dt(dt, params)
    kernel = _kernel(state, params, forcing, forcing_right)
    a, b = kernel.rk4(state.t, np.array((state.a, state.b)), dt)
    return AmplitudeState(state.t + dt, a, b)


@dataclass
class Trajectory:
    """Sampled model trajectory: times (nt,), amplitudes (nt, N)."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def final(self) -> AmplitudeState:
        return AmplitudeState(float(self.times[-1]), self.a[-1].copy(), self.b[-1].copy())


def run_model(state: AmplitudeState, params: ModelParams,
              forcing: BoundaryForcing, t_end: float, dt: float,
              forcing_right: Optional[BoundaryForcing] = None,
              sample_stride: int = 1) -> Trajectory:
    """Integrate the lattice model from state.t to t_end.

    The step is shrunk uniformly so the run lands exactly on t_end, and
    the time advances by accumulation (t += dt).  The trajectory is
    recorded every sample_stride steps (the final state is always
    included).  Raises DivergenceError on NaN or once |a| or |b| passes
    1e6.

    A state exactly in the real sector (b == conj(a)) stays there, so only
    a is integrated and b = conj(a) is returned; this matches stepping
    (a, b) with `rk4_step`.
    """
    span = t_end - state.t
    n_steps = _step_count(span, dt)
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be at least 1, got {sample_stride}")
    dt_eff = span / n_steps
    _check_dt(dt_eff, params)
    kernel = _kernel(state, params, forcing, forcing_right)
    real = bool(np.array_equal(state.b, np.conj(state.a)))
    x = state.a if real else np.array((state.a, state.b))

    clock = np.full(n_steps + 1, dt_eff)
    clock[0] = state.t
    np.cumsum(clock, out=clock)      # t += dt, step by step
    sampled = np.r_[0:n_steps:sample_stride, n_steps]
    samples = np.empty((1 if real else 2, len(sampled), state.n), dtype=complex)
    samples[:, 0] = x

    def record(i, xi):
        # sample k holds step k * sample_stride, the last one the final step
        if i % sample_stride == 0 or i == n_steps:
            samples[:, -(-i // sample_stride)] = xi

    _integrate("lattice model", lambda x, t: kernel.rk4(t, x, dt_eff), x,
               map(float, clock), record, _BLOWUP)
    a = samples[0]
    return Trajectory(clock[sampled], a, np.conj(a) if real else samples[1])
