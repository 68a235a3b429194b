"""Shared types, parameter validation and the one stepping loop.

The lattice model tracks two complex amplitudes per element, ``a_j`` and
``b_j``, multiplying the roll modes exp(+ix) and exp(-ix).  Elements have
width ``h = 2*pi*p`` (p whole rolls each), so both phase factors are
h-periodic and look identical in every element.  The coordinate frame is
fixed so that element centres sit at integer multiples of 2*pi; the left
physical boundary, when one is present, is at ``x = -h/2``.

A real solution field corresponds to ``b_j = conj(a_j)`` for every j.

The lattice model and both direct solvers step through one loop,
`_integrate`, and take their step counts from one rule, `_step_count`:
a span is covered by n = max(1, ceil(span/dt - 1e-12)) equal steps of
span/n, at most `_MAX_STEPS` of them.  The loop holds the start time,
the step and the step count, and keeps the clock itself: each step
starts at exactly the time the last one ended at (t += dt), and the
loop hands that time to its callback, so no caller builds a clock.  The
clock is a sum of n steps of span/n, so rounding can move its end off
t0 + span, by at most (n + 2) eps max(|t0|, |t0 + span|), eps = 2^-52:
a run of 200,000 steps of 0.1 ends at 19999.999999989453.  A
non-finite start state is bad input (ValueError); a state that turns
non-finite, or runs past a solver's bound, is a DivergenceError that
names the solver, the step and the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

Signal = Union[Callable[[float], float], float]

_LARGEST = float(np.finfo(float).max)   # max|x| <= _LARGEST fails only on NaN/Inf
_MAX = np.maximum.reduce


class DivergenceError(RuntimeError):
    """Raised when an integration produces NaN/Inf or runs away."""


def _positive_dt(dt: float) -> float:
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return dt


# The most steps one run may take.  The largest legitimate runs in the
# repository are the bounded oracle's m = 256 walls references, about
# 273,000 steps; ten million lattice steps already take minutes.  A run
# past it is a mistaken span or dt, which would otherwise run for hours.
_MAX_STEPS = 10_000_000


def _check_budget(steps: float, span: float, dt: float) -> None:
    if not steps <= _MAX_STEPS:
        raise ValueError(f"a span of {span:g} at dt={dt:g} needs {steps:.4g} steps, "
                         f"more than the budget of {_MAX_STEPS:,}")


def _step_count(span: float, dt: float) -> int:
    """Number of equal steps, each at most dt, that cover span exactly;
    more than _MAX_STEPS is a ValueError.

    The 1e-12 slack keeps a span that is a whole number of dt up to
    rounding from taking one step more.
    """
    if not 0 < span < math.inf:
        raise ValueError(
            f"t_end must exceed the start time and be finite, got a span of {span}")
    steps = span / _positive_dt(dt) - 1e-12
    _check_budget(steps, span, dt)
    return max(1, math.ceil(steps))


def _within(x: np.ndarray, bound: float) -> bool:
    """Whether max|x| <= bound, which NaN never is.  The real view decides
    first: |Re| and |Im| within bound/2 put |x| within bound/sqrt(2), and
    their absolute values take no square root.  Only when that fails is
    the modulus formed.  The ufunc's reduce skips the Python layer of
    ndarray.max, which costs more than the work on short lattices.  x is
    a float or complex array contiguous in its last axis, as every
    stepper's fresh state is."""
    if _MAX(np.abs(x.view(float)), axis=None) <= bound / 2.0:
        return True
    return bool(np.abs(x).max() <= bound)


def _integrate(solver: str, step: Callable, x: np.ndarray, t0: float, dt: float,
               n_steps: int, callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
               bound: float = _LARGEST) -> np.ndarray:
    """Take n_steps steps of dt from x at time t0, the clock advancing by
    accumulation (t += dt), so it ends within (n_steps + 2) eps max(|t0|,
    |t_end|) of the t_end that dt = (t_end - t0)/n_steps was formed from.

    Step i is x = step(x, t) with t the time it starts at.  After it,
    max|x| must stay within bound (NaN never does), else DivergenceError;
    then callback(i, x, t) runs if given, t the time the step ended at.
    Overflow on the way to that check is how divergence shows, so numpy's
    overflow and invalid-value warnings are silenced inside the loop.
    """
    if not np.isfinite(x).all():
        raise ValueError(f"{solver}: start state contains NaN/Inf")
    t, dt = float(t0), float(dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            x = step(x, t)
            t += dt
            if not _within(x, bound):
                what = f"runaway past {bound:g}" if np.isfinite(x).all() else "NaN/Inf"
                raise DivergenceError(f"{solver} diverged at step {i}, t={t:.6g}: {what}")
            if callback is not None:
                callback(i, x, t)
    return x


class ForcingKind(Enum):
    PERIODIC = "periodic"
    EVEN_GIVEN = "even"   # wall data: u and u_xx
    ODD_GIVEN = "odd"     # wall data: u_x and u_xxx

    @property
    def wall_sign(self) -> float:
        """Sign s of the wall stencil: +1 for even data (sin-locking), -1 for
        odd data (cos-locking), 0 without walls."""
        return {"periodic": 0.0, "even": 1.0, "odd": -1.0}[self.value]


@dataclass(frozen=True)
class ModelParams:
    """Validated model parameters; every construction is checked, by
    `dataclasses.replace` too.

    r          bifurcation parameter of u_t = r*u - (1+d_xx)^2 u - u^3
    gamma      inter-element coupling in [0, 1]; 1 is the physical model
    p          whole rolls per element
    n_elements lattice size N
    m_samples  field samples per element (power of two, >= 16)
    """

    r: float
    gamma: float
    p: int
    n_elements: int
    m_samples: int

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")
        if not math.isfinite(self.p) or int(self.p) != self.p or self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p}")
        n, m = self.n_elements, self.m_samples
        if not math.isfinite(n) or int(n) != n or n < 2:
            raise ValueError(
                f"n_elements must be at least 2 (stencils need a neighbour), got {n}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not math.isfinite(m) or int(m) != m or m < 16 or (int(m) & (int(m) - 1)) != 0:
            raise ValueError(f"m_samples must be a power of two >= 16, got {m}")
        for name, kind in (("r", float), ("gamma", float), ("p", int), ("n_elements", int),
                           ("m_samples", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))

    @property
    def h(self) -> float:
        """Element width, exactly 2*pi*p."""
        return 2.0 * math.pi * self.p

    @property
    def parity_factor(self) -> float:
        """(-1)**p, the roll-mode phase at a wall located h/2 off-centre."""
        return -1.0 if self.p % 2 else 1.0


def make_params(r: float, gamma: float, p: int, n_elements: int,
                m_samples: int) -> ModelParams:
    """Build ModelParams, rejecting out-of-range values."""
    return ModelParams(r=r, gamma=gamma, p=p, n_elements=n_elements, m_samples=m_samples)


@dataclass
class AmplitudeState:
    """Time plus the complex amplitude lattices a[0..N-1], b[0..N-1]."""

    t: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        self.b = np.asarray(self.b, dtype=complex)
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError(
                f"a and b must be 1-d arrays of equal length, got {self.a.shape} and {self.b.shape}")

    @property
    def n(self) -> int:
        return len(self.a)


def conjugate_state(t: float, a) -> AmplitudeState:
    """State in the real-field sector, b = conj(a)."""
    a = np.asarray(a, dtype=complex)
    return AmplitudeState(t, a, np.conj(a))


@dataclass
class FieldGrid:
    """Uniform sample of the real field u(x).

    Samples sit at x0 + i*dx.  Periodic grids omit the repeated endpoint
    (n samples covering length n*dx); bounded grids include both domain
    endpoints (n samples covering length (n-1)*dx).
    """

    x0: float
    dx: float
    u: np.ndarray
    periodic: bool

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim != 1:
            raise ValueError("u must be a 1-d array")
        if self.dx <= 0:
            raise ValueError(f"dx must be positive, got {self.dx}")

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(len(self.u))

    @property
    def length(self) -> float:
        n = len(self.u)
        return self.dx * (n if self.periodic else n - 1)

    @classmethod
    def zeros(cls, params: ModelParams, periodic: bool = True) -> "FieldGrid":
        """Element-aligned zero grid in the canonical frame (x0 = -h/2)."""
        n = params.n_elements * params.m_samples + (0 if periodic else 1)
        return cls(x0=-params.h / 2.0, dx=params.h / params.m_samples,
                   u=np.zeros(n), periodic=periodic)

    @classmethod
    def sample(cls, func, params: ModelParams, periodic: bool = True) -> "FieldGrid":
        """Element-aligned grid sampling ``func(x)`` in the canonical frame."""
        grid = cls.zeros(params, periodic=periodic)
        grid.u = np.asarray(func(grid.x), dtype=float)
        return grid


def _value(signal: Signal, t: float) -> float:
    """A signal's value at t: the number itself, or the function called at t."""
    return float(signal(t)) if callable(signal) else float(signal)


@dataclass(frozen=True)
class BoundaryForcing:
    """Boundary condition family and the time signals of both walls.

    kind selects periodic wrap, even-derivative data (u, u_xx given) or
    odd-derivative data (u_x, u_xxx given).  alpha and beta are the left
    wall's roll-frame signals and right the right wall's (alpha, beta)
    pair, None to repeat the left wall's; each signal is a finite number
    or a function of t.  The physical wall values carry the extra factor
    parity_factor = (-1)**p.
    """

    kind: ForcingKind
    alpha: Signal = 0.0
    beta: Signal = 0.0
    parity_factor: float = 1.0
    right: Optional[tuple[Signal, Signal]] = None

    def __post_init__(self):
        if self.kind is ForcingKind.PERIODIC and (
                (self.alpha, self.beta, self.right) != (0.0, 0.0, None)):
            raise ValueError("periodic forcing carries no signals")
        if self.right is not None and not (isinstance(self.right, tuple) and len(self.right) == 2):
            raise ValueError(f"right must be an (alpha, beta) pair, got {self.right!r}")
        for signal in (self.alpha, self.beta, *(self.right or ())):
            if not callable(signal) and not math.isfinite(signal):
                raise ValueError(f"wall signals must be finite, got {signal}")
        if self.parity_factor not in (-1.0, 1.0):
            raise ValueError(
                f"parity_factor must be +1 or -1, got {self.parity_factor}")

    @classmethod
    def periodic(cls) -> "BoundaryForcing":
        return cls(kind=ForcingKind.PERIODIC)

    @classmethod
    def even_given(cls, alpha=0.0, beta=0.0, p: int = 1, right=None) -> "BoundaryForcing":
        return cls(ForcingKind.EVEN_GIVEN, alpha, beta, (-1.0) ** int(p), right)

    @classmethod
    def odd_given(cls, alpha=0.0, beta=0.0, p: int = 1, right=None) -> "BoundaryForcing":
        return cls(ForcingKind.ODD_GIVEN, alpha, beta, (-1.0) ** int(p), right)

    def signals(self, t: float) -> tuple[tuple[float, float], tuple[float, float]]:
        """((alpha, beta) of the left wall, (alpha, beta) of the right) at t."""
        left = (_value(self.alpha, t), _value(self.beta, t))
        return left, (left if self.right is None
                      else (_value(self.right[0], t), _value(self.right[1], t)))
