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
a_1 decays at rate r - 8 g^2/h^2 while the imaginary part keeps rate r, so
walls prescribing even derivatives lock the rolls onto sin(x); s = -1
swaps the roles and locks onto cos(x).  A right wall is the mirror image
under x -> -x, which swaps the roles of a and b.

The coefficients, 4 g^2/h^2, 3 g^2 (3 in a wall row), g^2/h and the
reconstruction's g/4h, are written once, in `_Coefficients`, which the
kernel, its step rules and `subgrid` read.  Every right-hand side here is
one `_LatticeKernel`: the wall is a ghost neighbour -s b_1 and the wall
row's cubic weight, so interior and wall rows share one slice-based
stencil.  The forcing's kind fixes s
(`ForcingKind.wall_sign`).  Because the b-equation is the conjugate of
the a-equation when b = conj(a), `run_model` integrates and stores a
alone for states in that real sector.  `run_model` takes its step count
from `core._step_count` and steps RK4 through the loop `core._integrate`
that the direct solvers share, with a runaway bound of 1e6 on |a| and |b|.

A kernel holds its working arrays for the run: the padded row, a scratch
row and the conjugate partner from the start, and the four RK4 stages and
the stage state from the first step, sized for an (N,) or a (2, N) state.
Every operation writes into them through a ufunc's out argument and keeps
the operands and order of the allocating expression, so the results are
the same bit for bit; each step returns a fresh state.

On small lattices that stencil step costs its ~65 numpy calls, 25-50 us
whatever N is.  So `run_model` steps a state of at most 64 floats
(N <= 32 in the real sector, N <= 16 in the general one) with stage
matrices instead (`_StageRK4`): with the model written x' = M x + F(x, t)
on the state's float view, M the real-linear stencil and F the cubic and
the wall drives, every RK4 stage state is one precomputed matrix times
[drives, x, F_1, ...], so a step is four cubic evaluations and four
matmuls, about 22 calls.  M and the drive patterns are probed from the
kernel's own right-hand side on the unit vectors, so the stencil stays
the one source of the coefficients and ghosts.  The matmuls reorder the
stencil's sums: a stage-matrix run agrees with `rk4_step` to about 1e-15
of max|a| per step, and is held to 1e-14.  Their cost grows as the
square of the float count, and from 96 floats the stencil costs less;
`rk4_step`, `model_rhs` and larger lattices keep the stencil.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    AmplitudeState,
    BoundaryForcing,
    ModelParams,
    _integrate,
    _positive_dt,
    _step_count,
)

# A runaway bound on |a| and |b|.  The model holds for amplitudes of order
# sqrt(r/3), below 1 wherever it is used, so a state past 1e6 has left it
# for good; and the cubic there, 3e18, is still far from overflow, so the
# run is reported as a runaway at its step and time instead of as NaN/Inf.
_BLOWUP = 1e6
# Stage matrices step a state of at most this many floats (N <= 32 in the
# real sector, N <= 16 in the general one); their matmuls grow as the
# square of it, and from 96 floats the stencil's calls cost less.
_STAGE_FLOATS = 64
# RK4's stability limit on the negative real axis, and the share of it a
# derived step takes (_derived_dt)
_RK4_REAL_LIMIT, _STEP_SAFETY = 2.785, 0.5


class SignChoice(Enum):
    """Which sign alternative the wall stencil uses.  The kind of wall data
    fixes it, so `wall` builds the forcing of the matching kind.

    UPPER: even-derivative wall data (u, u_xx given), sin-locking.
    LOWER: odd-derivative wall data (u_x, u_xxx given), cos-locking.
    """

    UPPER = "upper"
    LOWER = "lower"

    def wall(self, alpha=0.0, beta=0.0, p: int = 1) -> BoundaryForcing:
        """Wall forcing whose data kind selects this sign alternative."""
        make = (BoundaryForcing.even_given if self is SignChoice.UPPER
                else BoundaryForcing.odd_given)
        return make(alpha, beta, p=p)


class _Coefficients:
    """The lattice model's coefficients at coupling g and element width h,
    the one place they are written: the neighbour coupling c = 4 g^2/h^2,
    the cubic weight 3 g^2 (3 in a wall row), the wall drive g^2/h per
    unit alpha + beta, the reconstruction's neighbour correction g/4h
    (`subgrid`), and the Gershgorin bound |r - 2c| + 2c of the linear
    stencil's rates, on which the step rules rest.  A wall row's ghost
    -s b_1 takes its neighbour's place in that bound.

    `analysis.lattice_dispersion`, `boundary_mode_rates` and
    `boundary_equilibrium`, and `gle_rhs`, stay independent transcriptions
    of the paper's formulas, so the tests can hold the model to them.
    """

    def __init__(self, params: ModelParams):
        g2, h = params.gamma ** 2, params.h
        self.coupling = c = 4.0 * g2 / h ** 2
        self.cubic, self.wall_cubic, self.drive = 3.0 * g2, 3.0, g2 / h
        self.envelope = params.gamma / (4.0 * h)
        self.bound = abs(params.r - 2.0 * c) + 2.0 * c


class _LatticeKernel:
    """Right-hand side and RK4 step of one lattice, with its coefficients
    and working arrays made once per run.

    With partner y (b for a, a for b) an amplitude row x evolves by
    dx_j/dt = r x_j + c (x_{j+1} - 2 x_j + x_{j-1}) - w_j x_j^2 y_j, less
    the wall drives at the ends, with c, w and the drive from
    `_Coefficients`.  Neighbours come from a ghost-padded buffer: the
    periodic wrap, or -s y at a wall, where the cubic weight w is the wall
    row's.  The b-equation conjugates the drive phases.
    """

    def __init__(self, params: ModelParams, forcing: BoundaryForcing):
        n, r, coef = params.n_elements, params.r, _Coefficients(params)
        # 0-d arrays scale a short array faster than Python scalars do,
        # with the same complex arithmetic
        self.r, self.c, self.two = (np.array(v, dtype=complex) for v in (r, coef.coupling, 2.0))
        self.sign = sign = forcing.kind.wall_sign
        self.forcing, self.drive, self.dt, self.shape = forcing, coef.drive, None, None
        self.pad, self.scratch, self.partner = (np.empty(k, dtype=complex)
                                                for k in (n + 2, n, n))
        self.mid, self.up, self.down = self.pad[1:-1], self.pad[2:], self.pad[:-2]
        # ghosts (0, N+1) take x at (N-1, 0) to wrap, or -s y at (0, N-1)
        step = n - 1
        self.ghosts, self.source = self.pad[::n + 1], slice(None, None, step if sign else -step)
        self.ghost_factor = np.array(-sign if sign else 1.0, dtype=complex)
        self.cubic = np.full(n, coef.cubic, dtype=complex)
        if sign:
            self.cubic[::step], self.phase = coef.wall_cubic, sign * (1.0 - 1.0j)

    def drives(self, t: float) -> Optional[list[float]]:
        """Left and right wall drives, the drive coefficient times alpha +
        beta, at time t; None without walls."""
        if not self.sign:
            return None
        (al, bl), (ar, br) = self.forcing.signals(t)
        return [self.drive * (al + bl), self.drive * (ar + br)]

    def __call__(self, x: np.ndarray, y: np.ndarray, out: np.ndarray, drives=None,
                 conj: bool = False) -> np.ndarray:
        """Write dx/dt given the partner y into out; conj selects the
        b-equation's phases.  out is r x + c((up - 2x) + down) - (w (x x)) y,
        each operation in that order, with s the scratch row."""
        s = self.scratch
        self.mid[...] = x
        np.multiply((y if self.sign else x)[self.source], self.ghost_factor, self.ghosts)
        np.multiply(self.two, x, s)
        np.subtract(self.up, s, s)
        np.add(s, self.down, s)
        np.multiply(self.c, s, s)
        np.multiply(self.r, x, out)
        np.add(out, s, out)
        np.multiply(x, x, s)
        np.multiply(self.cubic, s, s)
        np.multiply(s, y, s)
        np.subtract(out, s, out)
        if drives is not None:
            phase = self.phase.conjugate() if conj else self.phase
            out[0] -= phase * drives[0]
            out[-1] -= phase.conjugate() * drives[1]
        return out

    def rhs(self, x: np.ndarray, drives, out: np.ndarray) -> np.ndarray:
        """Write the derivative of x = a in the real sector, or of
        x = (a, b), into out."""
        if x.ndim == 1:
            return self(x, np.conjugate(x, self.partner), out, drives)
        self(x[0], x[1], out[0], drives)
        self(x[1], x[0], out[1], drives, True)
        return out

    def rk4(self, t: float, x: np.ndarray, dt: float) -> np.ndarray:
        """One classical RK4 step, with the drives at the stage times.  The
        stages live in buffers sized by the first call; only the returned
        state x + sixth(((k1 + 2 k2) + 2 k3) + k4) is a fresh array."""
        if dt != self.dt:
            self.dt = dt
            self.steps = tuple(np.array(v, dtype=complex) for v in (dt / 2, dt, dt / 6))
        if x.shape != self.shape:
            self.shape = x.shape
            self.k1, self.k2, self.k3, self.k4, self.stage = (
                np.empty(x.shape, dtype=complex) for _ in range(5))
        half, full, sixth = self.steps
        k1, k2, k3, k4, stage, two = self.k1, self.k2, self.k3, self.k4, self.stage, self.two
        mid = self.drives(t + dt / 2)
        self.rhs(x, self.drives(t), k1)
        np.multiply(half, k1, stage)
        np.add(x, stage, stage)
        self.rhs(stage, mid, k2)
        np.multiply(half, k2, stage)
        np.add(x, stage, stage)
        self.rhs(stage, mid, k3)
        np.multiply(full, k3, stage)
        np.add(x, stage, stage)
        self.rhs(stage, self.drives(t + dt), k4)
        np.multiply(two, k2, k2)
        np.add(k1, k2, k1)
        np.multiply(two, k3, k3)
        np.add(k1, k3, k1)
        np.add(k1, k4, k1)
        np.multiply(sixth, k1, k1)
        return x + k1


class _StageRK4:
    """Classical RK4 of a small lattice as four matrix products per step.

    The model is x' = M x + F(x, t) on the float view of the state, with M
    the real-linear stencil (r, coupling, wall ghosts) and F the cubic
    term plus the wall drives.  Each RK4 stage state is then s_i = A_i x +
    sum_{j<i} B_ij F_j with F_j = F(s_j, t_j), and the new state
    A_5 x + sum_j B_5j F_j.  The drives enter F_j as P d(t_j), P the two
    drive patterns, so the maps take z = [d(t), d(t + dt/2), d(t + dt),
    x, C_1 .. C_4] with C_j the cubic term of s_j; stage i reads the first
    6 + i L floats of z (L floats per state).  M and P are probed from the
    kernel's own right-hand side, cubic weight zeroed, on the unit
    vectors, so the stencil stays the one definition of the
    coefficients and ghosts.
    """

    def __init__(self, kernel: _LatticeKernel, shape: tuple, dt: float):
        self.drives, self.walls, self.dt, self.shape = kernel.drives, bool(kernel.sign), dt, shape
        self.t_end = self.end = None
        size = 2 * int(np.prod(shape))
        out = np.empty(shape, dtype=complex)
        # [M | P] column by column: the kernel with its cubic weight zeroed,
        # on each unit vector without drives, then on zero with each drive
        probe = np.zeros((size, size + 2))
        columns = [(e.view(complex).reshape(shape), None) for e in np.eye(size)]
        if self.walls:
            columns += [(np.zeros(shape, dtype=complex), d) for d in ([1.0, 0.0], [0.0, 1.0])]
        weights, kernel.cubic = kernel.cubic, np.zeros_like(kernel.cubic)
        for k, (x, d) in enumerate(columns):
            probe[:, k] = kernel.rhs(x, d, out).view(float).ravel()
        kernel.cubic, self.w = weights, -weights
        m, p = probe[:, :size], probe[:, size:]
        # the maps on the blocks of [x, F_1 .. F_4], built by RK4's own
        # recurrence: s_1 = x, k_j = M s_j + F_j, s_{j+1} = x + c_j dt k_j
        blocks = np.eye(5 * size).reshape(5, size, 5 * size)
        stages, slopes = [blocks[0]], []
        for j, frac in enumerate((dt / 2, dt / 2, dt, None), 1):
            slopes.append(m @ stages[-1] + blocks[j])
            if frac:
                stages.append(blocks[0] + frac * slopes[-1])
        k1, k2, k3, k4 = slopes
        stages.append(blocks[0] + dt / 6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        self.maps = []
        for i, g in enumerate(stages[1:], 2):
            f = g[:, size:].reshape(size, 4, size)   # F_1 .. F_4 take P d(t_j)
            drive = (f[:, 0] @ p, (f[:, 1] + f[:, 2]) @ p, f[:, 3] @ p)
            self.maps.append(np.hstack((*drive, g[:, :i * size])))
        self.z = z = np.zeros(6 + 5 * size)
        self.inputs = [z[:6 + i * size] for i in range(2, 5)]
        self.x, *self.cubics = (z[6 + j * size:6 + (j + 1) * size].view(complex).reshape(shape)
                                for j in range(5))
        self.s = np.empty((3, size))
        self.states = [s.view(complex).reshape(shape) for s in self.s]
        self.partner = np.empty(shape, dtype=complex)

    def cubic(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write -(w (x x)) y into out, y the partner of x."""
        np.multiply(x, x, out)
        np.multiply(self.w, out, out)
        np.multiply(out, np.conjugate(x, self.partner) if x.ndim == 1 else x[::-1], out)

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        """One step from time t; only the returned state is a fresh array.
        A step that starts where the last one ended reuses its end drives."""
        z = self.z
        if self.walls:
            start = self.end if t == self.t_end else self.drives(t)
            self.t_end = t + self.dt
            self.end = self.drives(self.t_end)
            z[:6] = start + self.drives(t + self.dt / 2) + self.end
        self.x[...] = x
        self.cubic(x, self.cubics[0])
        for g, z_i, s, state, c in zip(self.maps, self.inputs, self.s, self.states,
                                       self.cubics[1:]):
            np.matmul(g, z_i, out=s)
            self.cubic(state, c)
        return (self.maps[3] @ z).view(complex).reshape(self.shape)


def _stepper(kernel: _LatticeKernel, x: np.ndarray, dt: float):
    """run_model's step (x, t) -> x: stage matrices while the state has at
    most _STAGE_FLOATS floats, else the kernel's stencil RK4."""
    if 2 * x.size <= _STAGE_FLOATS:
        return _StageRK4(kernel, x.shape, dt)
    return lambda x, t: kernel.rk4(t, x, dt)


def _kernel(state: AmplitudeState, params: ModelParams,
            forcing: BoundaryForcing) -> _LatticeKernel:
    if state.n != params.n_elements:
        raise ValueError(
            f"state has {state.n} elements but params expect {params.n_elements}")
    return _LatticeKernel(params, forcing)


def model_rhs(state: AmplitudeState, params: ModelParams,
              forcing: BoundaryForcing) -> tuple[np.ndarray, np.ndarray]:
    """Full lattice derivative.

    Periodic forcing wraps every stencil.  Otherwise the first and last
    elements use the wall stencils and the rest the interior one (the
    j = 2 element needs no special treatment).  Each wall takes its own
    signals from the forcing (`BoundaryForcing.signals`).
    """
    kernel = _kernel(state, params, forcing)
    return tuple(kernel.rhs(np.array((state.a, state.b)), kernel.drives(state.t),
                            np.empty((2, state.n), dtype=complex)))


def gle_rhs(a: np.ndarray, r: float, c: float, d: float, h: float) -> np.ndarray:
    """Discrete Ginzburg-Landau right-hand side on a periodic lattice:

        r a_j + (c/h^2)(a_{j+1} - 2 a_j + a_{j-1}) - d |a_j|^2 a_j

    Its coefficients are arguments, apart from `_Coefficients`, so that
    criterion 2 holds the model to the paper's c = 4 g^2, d = 3 g^2.
    """
    a = np.asarray(a, dtype=complex)
    return (r * a + (c / h ** 2) * (np.roll(a, -1) - 2 * a + np.roll(a, 1))
            - d * (a * a) * np.conj(a))


def reality_check(state: AmplitudeState) -> float:
    """Distance from the real-field sector, max_j |b_j - conj(a_j)|."""
    return float(np.max(np.abs(state.b - np.conj(state.a)))) if state.n else 0.0


def max_stable_dt(params: ModelParams) -> float:
    """The largest step at which RK4 keeps the linear stencil stable:
    2.785, RK4's limit on the negative real axis, over the stencil's
    Gershgorin bound |r - 2c| + 2c (`_Coefficients`); inf when that bound
    is 0.  Walls add nothing to the bound, and the cubic is not counted: a
    step the cubic makes unstable runs and diverges (DivergenceError)."""
    bound = _Coefficients(params).bound
    return _RK4_REAL_LIMIT / bound if bound else math.inf


def _derived_dt(params: ModelParams, a0: np.ndarray) -> float:
    """The step a periodic, unforced, real-sector run from a0 allows: S 2.785
    / rho with the safety factor S = 0.5 and rho the stencil's bound plus
    3 w A^2, the norm of the cubic's Jacobian at the amplitude bound
    A = max(max|a0|, sqrt(r / w)), w = 3 g^2 the cubic weight
    (`_Coefficients`), so 3 w A^2 = max(3 w max|a0|^2, 3 max(r, 0)).  No
    |a_j| passes A: at the element of largest |a_j| the coupling cannot
    raise it, so d|a_j|^2/dt <= 2 |a_j|^2 (r - w |a_j|^2).  inf when rho is
    0, where the right-hand side is zero."""
    coef = _Coefficients(params)
    rho = coef.bound + max(3.0 * coef.cubic * float(np.max(np.abs(a0))) ** 2,
                           3.0 * max(params.r, 0.0))
    return _STEP_SAFETY * _RK4_REAL_LIMIT / rho if rho else math.inf


def _check_dt(dt: float, params: ModelParams) -> None:
    if _positive_dt(dt) > max_stable_dt(params) * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt} exceeds the stability margin {max_stable_dt(params):.4g}")


def rk4_step(state: AmplitudeState, params: ModelParams,
             forcing: BoundaryForcing, dt: float) -> AmplitudeState:
    """One classical fourth-order Runge-Kutta step.

    Time-dependent forcing is evaluated at the stage times, which assumes
    slowly varying signals (the model itself is only valid in that regime).
    """
    _check_dt(dt, params)
    kernel = _kernel(state, params, forcing)
    a, b = kernel.rk4(state.t, np.array((state.a, state.b)), dt)
    return AmplitudeState(state.t + dt, a, b)


class Trajectory:
    """Sampled model trajectory: times (nt,), amplitudes a and b (nt, N).

    A real-sector run stores a alone (b None); b then reads as conj(a),
    formed on each read, and `final` conjugates only the last row.
    """

    def __init__(self, times: np.ndarray, a: np.ndarray, b: Optional[np.ndarray] = None):
        self.times, self.a, self._b = times, a, b

    @property
    def b(self) -> np.ndarray:
        return np.conj(self.a) if self._b is None else self._b

    @property
    def final(self) -> AmplitudeState:
        a = self.a[-1]
        return AmplitudeState(float(self.times[-1]), a.copy(),
                              np.conj(a) if self._b is None else self._b[-1].copy())


def run_model(state: AmplitudeState, params: ModelParams,
              forcing: BoundaryForcing, t_end: float, dt: float,
              sample_stride: int = 1) -> Trajectory:
    """Integrate the lattice model from state.t to t_end.

    The span is covered by n equal steps of span/n, each at most dt, and
    the time advances by accumulation (t += span/n), so the reported times
    are sums of span/n that rounding can move off t_end: the last is
    within (n + 2) eps max(|t0|, |t_end|) of it, eps = 2^-52.  The
    trajectory is recorded every sample_stride steps (the final state is
    always included; a stride past the run samples its two ends).  Raises
    DivergenceError on NaN or once |a| or |b| passes 1e6.

    A state exactly in the real sector (b == conj(a)) stays there, so only
    a is integrated and stored, and the trajectory reads b as conj(a).
    A state of at most 64 floats steps with stage matrices, within 1e-14
    of max|a| of stepping (a, b) with `rk4_step`.  A larger one steps the
    stencil as `rk4_step` does: bit for bit, except that a real-sector run
    with walls agrees to within 1e-14.
    """
    span = t_end - state.t
    n_steps = _step_count(span, dt)
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be at least 1, got {sample_stride}")
    sample_stride = min(sample_stride, n_steps)   # a longer stride keeps the ends alone
    dt_eff = span / n_steps
    _check_dt(dt_eff, params)
    kernel = _kernel(state, params, forcing)
    real = bool(np.array_equal(state.b, np.conj(state.a)))
    x = state.a if real else np.array((state.a, state.b))

    count = -(-n_steps // sample_stride) + 1   # steps 0, stride, 2 stride, ..., and the last
    times = np.full(count, state.t, dtype=float)   # record writes the loop's times after 0
    samples = np.empty((1 if real else 2, count, state.n), dtype=complex)
    samples[:, 0] = x

    def record(i, xi, t):
        # sample k holds step k * sample_stride, the last one the final step
        if i % sample_stride == 0 or i == n_steps:
            k = -(-i // sample_stride)
            times[k], samples[:, k] = t, xi

    _integrate("lattice model", _stepper(kernel, x, dt_eff), x, state.t, dt_eff, n_steps,
               record, _BLOWUP)
    return Trajectory(times, *samples)   # (a,) in the real sector, else (a, b)
