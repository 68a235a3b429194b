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
kernel, its step rules and `subgrid` read.  The model itself is written
once, in `_LatticeKernel`: the wall is a ghost neighbour -s b_1 and the
wall row's cubic weight, so interior and wall rows share one slice-based
stencil.  The forcing's kind fixes s (`ForcingKind.wall_sign`).  Because
the b-equation is the conjugate of the a-equation when b = conj(a),
`run_model` integrates and stores a alone for states in that real sector.
`run_model` takes its step count from `core._step_count` and steps RK4
through the loop `core._integrate` that the direct solvers share, with a
runaway bound of 1e6 on |a| and |b|.

A kernel is built for one run, with the state's shape, (N,) or (2, N),
and the step fixed.  It has one routine per term of the model, each
working on a whole state: the linear stencil, the cubic (w (x x)) y with
one partner rule y, and the wall drives, read on one schedule of stage
times.  It holds its working arrays for the run, and every operation
writes into them through a ufunc's out argument, keeping the operands and
order of the allocating expression, so the results are the same bit for
bit; each step returns a fresh state.

Two classical RK4 schemes step that kernel, both as step(x, t).  The
stencil RK4, `_LatticeKernel.rk4`, costs some 65 numpy calls a step,
25-50 us whatever N is.  So `run_model` steps a state of at most 64
floats (N <= 32 in the real sector, N <= 16 in the general one) with
stage matrices instead (`_StageRK4`): with the model written x' = M x +
P d(t) - C(x) on the state's float view, M the kernel's linear part, P
its drive patterns and C its cubic, every RK4 stage state is one
precomputed matrix times [drives, x, C_1, ...], so a step is four cubic
evaluations and four matmuls, about 22 calls.  M and P are probed from
the kernel's linear and drive routines on the unit vectors, without
setting anything on it, so the kernel stays the one source of the
coefficients and ghosts.  The matmuls reorder the stencil's sums: a
stage-matrix run agrees with `rk4_step` to about 1e-15 of max|a| per
step, and is held to 1e-14.  Their cost grows as the square of the float
count: at 64 floats they cost 21-49% less than the stencil, at 96 floats
10-31% less.  The cutoff stays at 64 floats, so that no run moves to
the other scheme's rounding; `rk4_step`, `model_rhs` and larger lattices
keep the stencil.
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
# square of it (see the module docstring for where they cost less).
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
    """The lattice model of one run: its right-hand side and stencil RK4
    step, with the state's shape, the step dt and the working arrays fixed
    at construction.

    With partner y (`partner`: conj(a) in the real sector, (b, a)
    otherwise) a state x evolves by dx_j/dt = r x_j + c (x_{j+1} - 2 x_j +
    x_{j-1}) - w_j x_j^2 y_j, less the wall drives at the ends, with c, w
    and the drive from `_Coefficients`.  Each term has one routine, on a
    whole state: `linear`, the stencil on a ghost-padded buffer (the
    periodic wrap, or -s y at a wall, where the cubic weight w is the wall
    row's); `cubic`, (w (x x)) y; and `drive`, the wall drives, whose
    phases the b-row conjugates.  `stage_drives` is the one drive schedule
    of both RK4 paths, `rk4` and `_StageRK4`.
    """

    def __init__(self, params: ModelParams, forcing: BoundaryForcing, shape: tuple,
                 dt: float = 0.0):
        n, r, coef = params.n_elements, params.r, _Coefficients(params)
        # 0-d arrays scale a short array faster than Python scalars do,
        # with the same complex arithmetic
        self.r, self.c, self.two = (np.array(v, dtype=complex) for v in (r, coef.coupling, 2.0))
        self.steps = tuple(np.array(v, dtype=complex) for v in (dt / 2, dt, dt / 6))
        self.shape, self.floats, self.dt = shape, 2 * math.prod(shape), dt
        self.sign = sign = forcing.kind.wall_sign
        self.forcing, self.drive_coef, self.t_end = forcing, coef.drive, None
        self.pad = np.empty(shape[:-1] + (n + 2,), dtype=complex)
        self.scratch, self.conj, self.k1, self.k2, self.k3, self.k4, self.stage = np.empty(
            (7,) + shape, dtype=complex)
        self.mid, self.up, self.down = self.pad[..., 1:-1], self.pad[..., 2:], self.pad[..., :-2]
        # ghosts (0, N+1) take x at (N-1, 0) to wrap, or -s y at the ends (0, N-1)
        step = n - 1
        self.ends, self.ghosts = (..., slice(None, None, step)), self.pad[..., ::n + 1]
        self.source = self.ends if sign else (..., slice(None, None, -step))
        self.ghost_factor = np.array(-sign if sign else 1.0, dtype=complex)
        self.w = np.full(n, coef.cubic, dtype=complex)
        if sign:
            self.w[::step] = coef.wall_cubic
        # the a-row's (left, right) drive phases; the b-row's are conjugate
        phase = sign * (1.0 - 1.0j)
        row = [phase, phase.conjugate()]
        self.phases = np.array(row if len(shape) == 1 else [row, row[::-1]])

    def partner(self, x: np.ndarray) -> np.ndarray:
        """y of the state x: conj(a) in the real sector, (b, a) otherwise."""
        return np.conjugate(x, self.conj) if x.ndim == 1 else x[::-1]

    def linear(self, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write r x + c((up - 2x) + down) into out, each operation in that
        order, the wall ghosts taken from the partner y."""
        s = self.scratch
        self.mid[...] = x
        np.multiply((y if self.sign else x)[self.source], self.ghost_factor, self.ghosts)
        np.multiply(self.two, x, s)
        np.subtract(self.up, s, s)
        np.add(s, self.down, s)
        np.multiply(self.c, s, s)
        np.multiply(self.r, x, out)
        return np.add(out, s, out)

    def cubic(self, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the cubic term (w (x x)) y into out, y the partner of x."""
        np.multiply(x, x, out)
        np.multiply(self.w, out, out)
        return np.multiply(out, y, out)

    def drive(self, out: np.ndarray, drives) -> np.ndarray:
        """Subtract the wall drives' terms from the end rows of out; none
        when drives is None."""
        if drives is not None:
            ends = out[self.ends]
            np.subtract(ends, self.phases * drives, ends)
        return out

    def drives(self, t: float) -> Optional[list[float]]:
        """Left and right wall drives, the drive coefficient times alpha +
        beta, at time t; None without walls."""
        if not self.sign:
            return None
        (al, bl), (ar, br) = self.forcing.signals(t)
        return [self.drive_coef * (al + bl), self.drive_coef * (ar + br)]

    def stage_drives(self, t: float) -> tuple:
        """The drives at a step's stage times t, t + dt/2 and t + dt.  A step
        that starts where the last one ended reuses its end drives, so k
        steps read the signals 2k + 1 times."""
        start = self.end if t == self.t_end else self.drives(t)
        self.t_end, mid = t + self.dt, self.drives(t + self.dt / 2)
        self.end = self.drives(self.t_end)
        return start, mid, self.end

    def rhs(self, x: np.ndarray, drives, out: np.ndarray) -> np.ndarray:
        """Write the derivative of x = a in the real sector, or of
        x = (a, b), into out: linear, less cubic, less drives."""
        y = self.partner(x)
        np.subtract(self.linear(x, y, out), self.cubic(x, y, self.scratch), out)
        return self.drive(out, drives)

    def rk4(self, x: np.ndarray, t: float) -> np.ndarray:
        """One classical RK4 step of dt from time t, the drives at the stage
        times.  Only the returned state x + sixth(((k1 + 2 k2) + 2 k3) + k4)
        is a fresh array."""
        half, full, sixth = self.steps
        k1, k2, k3, k4, stage, two = self.k1, self.k2, self.k3, self.k4, self.stage, self.two
        start, mid, end = self.stage_drives(t)
        self.rhs(x, start, k1)
        np.multiply(half, k1, stage)
        np.add(x, stage, stage)
        self.rhs(stage, mid, k2)
        np.multiply(half, k2, stage)
        np.add(x, stage, stage)
        self.rhs(stage, mid, k3)
        np.multiply(full, k3, stage)
        np.add(x, stage, stage)
        self.rhs(stage, end, k4)
        np.multiply(two, k2, k2)
        np.add(k1, k2, k1)
        np.multiply(two, k3, k3)
        np.add(k1, k3, k1)
        np.add(k1, k4, k1)
        np.multiply(sixth, k1, k1)
        return x + k1


class _StageRK4:
    """Classical RK4 of a small lattice as four matrix products per step,
    over the same kernel as the stencil RK4.

    The model is x' = M x + P d(t) - C(x) on the float view of the state,
    with M the kernel's `linear` part (r, coupling, wall ghosts), P its two
    drive patterns and C its `cubic` term.  Each RK4 stage state is then
    s_i = A_i x + sum_{j<i} B_ij (P d(t_j) - C_j), C_j = C(s_j), and the new
    state A_5 x + sum_j B_5j (P d(t_j) - C_j).  So the maps take z = [d(t),
    d(t + dt/2), d(t + dt), x, C_1 .. C_4], the drives from the kernel's
    `stage_drives`; stage i reads the first 6 + i L floats of z (L floats
    per state).  M and P are probed from `linear` and `drive` on the unit
    vectors, which reads the kernel and sets nothing on it, so the kernel
    stays the one definition of the coefficients and ghosts.
    """

    def __init__(self, kernel: _LatticeKernel):
        self.kernel, self.walls, shape, dt = kernel, bool(kernel.sign), kernel.shape, kernel.dt
        size = kernel.floats
        # [M | P] column by column: the linear part on each unit vector,
        # then each drive alone on a zero state
        probe = np.zeros((size, size + 2))
        for k, e in enumerate(np.eye(size)):
            x = e.view(complex).reshape(shape)
            probe[:, k] = kernel.linear(x, kernel.partner(x), np.empty_like(x)).view(float).ravel()
        for k, d in enumerate(([1.0, 0.0], [0.0, 1.0]), size):
            probe[:, k] = kernel.drive(np.zeros(shape, dtype=complex), d).view(float).ravel()
        m, p = probe[:, :size], probe[:, size:]
        # the maps on the blocks of [x, F_1 .. F_4], F_j = P d(t_j) - C_j, built
        # by RK4's own recurrence: s_1 = x, k_j = M s_j + F_j, s_{j+1} = x + c_j dt k_j
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
            self.maps.append(np.hstack((*drive, g[:, :size], -g[:, size:i * size])))
        self.z = z = np.zeros(6 + 5 * size)
        self.inputs = [z[:6 + i * size] for i in range(2, 5)]
        self.x, *self.cubics = (z[6 + j * size:6 + (j + 1) * size].view(complex).reshape(shape)
                                for j in range(5))
        self.s = np.empty((3, size))
        self.states = [s.view(complex).reshape(shape) for s in self.s]

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        """One step from time t; only the returned state is a fresh array."""
        z, kernel = self.z, self.kernel
        if self.walls:
            start, mid, end = kernel.stage_drives(t)
            z[:6] = start + mid + end
        self.x[...] = x
        kernel.cubic(x, kernel.partner(x), self.cubics[0])
        for g, z_i, s, state, c in zip(self.maps, self.inputs, self.s, self.states,
                                       self.cubics[1:]):
            np.matmul(g, z_i, out=s)
            kernel.cubic(state, kernel.partner(state), c)
        return (self.maps[3] @ z).view(complex).reshape(kernel.shape)


def _stepper(kernel: _LatticeKernel):
    """run_model's step (x, t) -> x: stage matrices while the state has at
    most _STAGE_FLOATS floats, else the kernel's stencil RK4."""
    return _StageRK4(kernel) if kernel.floats <= _STAGE_FLOATS else kernel.rk4


def _kernel(state: AmplitudeState, params: ModelParams, forcing: BoundaryForcing,
            shape: tuple, dt: float = 0.0) -> _LatticeKernel:
    if state.n != params.n_elements:
        raise ValueError(
            f"state has {state.n} elements but params expect {params.n_elements}")
    return _LatticeKernel(params, forcing, shape, dt)


def model_rhs(state: AmplitudeState, params: ModelParams,
              forcing: BoundaryForcing) -> tuple[np.ndarray, np.ndarray]:
    """Full lattice derivative.

    Periodic forcing wraps every stencil.  Otherwise the first and last
    elements use the wall stencils and the rest the interior one (the
    j = 2 element needs no special treatment).  Each wall takes its own
    signals from the forcing (`BoundaryForcing.signals`).
    """
    x = np.array((state.a, state.b))
    kernel = _kernel(state, params, forcing, x.shape)
    return tuple(kernel.rhs(x, kernel.drives(state.t), np.empty_like(x)))


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
    0, where the right-hand side is zero.

    The step bounds stability, not accuracy: a start that decays fast is
    stepped coarsely.  From a0 = full(2, sqrt(4/3)) at r = -4, g = 0, p = 1
    it is 0.348.  A run to t = 7 at 0.175, the step `compare` takes there
    (its 40 samples cap it), sits 1.25e-3 of its peak |a| off a
    quarter-step run; at 0.348 it sits 3.6e-2 off."""
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
    x = np.array((state.a, state.b))
    a, b = _kernel(state, params, forcing, x.shape, dt).rk4(x, state.t)
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
    if not isinstance(sample_stride, (int, np.integer)) or sample_stride < 1:
        raise ValueError(f"sample_stride must be a whole number >= 1, got {sample_stride}")
    sample_stride = min(sample_stride, n_steps)   # a longer stride keeps the ends alone
    dt_eff = span / n_steps
    _check_dt(dt_eff, params)
    real = bool(np.array_equal(state.b, np.conj(state.a)))
    x = state.a if real else np.array((state.a, state.b))
    kernel = _kernel(state, params, forcing, x.shape, dt_eff)

    count = -(-n_steps // sample_stride) + 1   # steps 0, stride, 2 stride, ..., and the last
    times = np.full(count, state.t, dtype=float)   # record writes the loop's times after 0
    samples = np.empty((1 if real else 2, count, state.n), dtype=complex)
    samples[:, 0] = x

    def record(i, xi, t):
        # sample k holds step k * sample_stride, the last one the final step
        if i % sample_stride == 0 or i == n_steps:
            k = -(-i // sample_stride)
            times[k], samples[:, k] = t, xi

    _integrate("lattice model", _stepper(kernel), x, state.t, dt_eff, n_steps,
               record, _BLOWUP)
    return Trajectory(times, *samples)   # (a,) in the real sector, else (a, b)
