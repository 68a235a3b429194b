"""Shared types, parameter validation and lattice stencil operators.

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
span/n.  A non-finite start state is bad input (ValueError); a state that
turns non-finite, or runs past a solver's bound, is a DivergenceError that
names the solver, the step and the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import pairwise
from typing import Callable, Iterable, Optional, Union

import numpy as np

Signal = Callable[[float], float]

_LARGEST = float(np.finfo(float).max)   # max|x| <= _LARGEST fails only on NaN/Inf


class DivergenceError(RuntimeError):
    """Raised when an integration produces NaN/Inf or runs away."""


def _positive_dt(dt: float) -> float:
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return dt


def _step_count(span: float, dt: float) -> int:
    """Number of equal steps, each at most dt, that cover span exactly.

    The 1e-12 slack keeps a span that is a whole number of dt up to
    rounding from taking one step more.
    """
    if not span > 0:
        raise ValueError(f"t_end must exceed the start time, got a span of {span}")
    return max(1, math.ceil(span / _positive_dt(dt) - 1e-12))


def _integrate(solver: str, step: Callable, x: np.ndarray, times: Iterable[float],
               callback: Optional[Callable[[int, np.ndarray], None]] = None,
               bound: float = _LARGEST) -> np.ndarray:
    """Step x through times: the start time, then the time after each step.

    Step i is x = step(x, t) with t the time it starts at.  After it,
    max|x| must stay within bound (NaN never does), else DivergenceError;
    then callback(i, x) runs if given.  Overflow on the way to that check
    is how divergence shows, so numpy's overflow and invalid-value
    warnings are silenced inside the loop.
    """
    if not np.isfinite(x).all():
        raise ValueError(f"{solver}: start state contains NaN/Inf")
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (t, t_next) in enumerate(pairwise(times), 1):
            x = step(x, t)
            if not np.abs(x).max() <= bound:
                what = f"runaway past {bound:g}" if np.isfinite(x).all() else "NaN/Inf"
                raise DivergenceError(
                    f"{solver} diverged at step {i}, t={t_next:.6g}: {what}")
            if callback is not None:
                callback(i, x)
    return x


class ForcingKind(Enum):
    PERIODIC = "periodic"
    EVEN_GIVEN = "even"   # wall data: u and u_xx
    ODD_GIVEN = "odd"     # wall data: u_x and u_xxx


@dataclass(frozen=True)
class ModelParams:
    """Validated model parameters.

    r          bifurcation parameter of u_t = r*u - (1+d_xx)^2 u - u^3
    gamma      inter-element coupling in [0, 1]; 1 is the physical model
    p          whole rolls per element
    h          element width, exactly 2*pi*p
    n_elements lattice size N
    m_samples  field samples per element (power of two, >= 16)
    """

    r: float
    gamma: float
    p: int
    h: float
    n_elements: int
    m_samples: int

    @property
    def parity_factor(self) -> float:
        """(-1)**p, the roll-mode phase at a wall located h/2 off-centre."""
        return -1.0 if self.p % 2 else 1.0


def make_params(r: float, gamma: float, p: int, n_elements: int,
                m_samples: int) -> ModelParams:
    """Build ModelParams, rejecting out-of-range values."""
    if int(p) != p or p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if int(n_elements) != n_elements or n_elements < 2:
        raise ValueError(
            f"n_elements must be at least 2 (stencils need a neighbour), got {n_elements}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    m = int(m_samples)
    if m != m_samples or m < 16 or (m & (m - 1)) != 0:
        raise ValueError(
            f"m_samples must be a power of two >= 16, got {m_samples}")
    return ModelParams(r=float(r), gamma=float(gamma), p=int(p),
                       h=2.0 * math.pi * int(p), n_elements=int(n_elements),
                       m_samples=m)


def element_centers(params: ModelParams, x0: Optional[float] = None) -> np.ndarray:
    """Element centre coordinates x_j = x0 + (j + 1/2) h, j = 0..N-1.

    The default x0 = -h/2 puts the centres at 0, h, 2h, ... which is the
    frame the reconstruction and boundary formulas assume.
    """
    if x0 is None:
        x0 = -params.h / 2.0
    return x0 + (np.arange(params.n_elements) + 0.5) * params.h


def _resolve_neighbours(n: int, j: int, periodic: bool) -> tuple[int, int]:
    if not 0 <= j < n:
        raise IndexError(f"index {j} outside lattice of size {n}")
    if periodic:
        return (j - 1) % n, (j + 1) % n
    if j == 0 or j == n - 1:
        raise IndexError(
            f"index {j} has no neighbour on a non-periodic lattice of size {n}")
    return j - 1, j + 1


def second_difference(v, j: int, periodic: bool = False) -> complex:
    """Central second difference v[j+1] - 2 v[j] + v[j-1]."""
    v = np.asarray(v)
    jm, jp = _resolve_neighbours(len(v), j, periodic)
    return v[jp] - 2.0 * v[j] + v[jm]


def mean_difference(v, j: int, periodic: bool = False) -> complex:
    """Centred mean difference (v[j+1] - v[j-1]) / 2."""
    v = np.asarray(v)
    jm, jp = _resolve_neighbours(len(v), j, periodic)
    return (v[jp] - v[jm]) / 2.0


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
    def zeros(cls, params: ModelParams, periodic: bool = True,
              x0: Optional[float] = None) -> "FieldGrid":
        """Element-aligned zero grid in the canonical frame (x0 = -h/2)."""
        if x0 is None:
            x0 = -params.h / 2.0
        n = params.n_elements * params.m_samples + (0 if periodic else 1)
        return cls(x0=x0, dx=params.h / params.m_samples,
                   u=np.zeros(n), periodic=periodic)

    @classmethod
    def sample(cls, func, params: ModelParams, periodic: bool = True,
               x0: Optional[float] = None) -> "FieldGrid":
        """Element-aligned grid sampling ``func(x)``."""
        grid = cls.zeros(params, periodic=periodic, x0=x0)
        grid.u = np.asarray(func(grid.x), dtype=float)
        return grid


def as_signal(value: Union[Signal, float, int, None]) -> Optional[Signal]:
    """Normalise a constant or callable to a time signal (None passes through)."""
    if value is None:
        return None
    if callable(value):
        return value
    const = float(value)
    return lambda t: const


@dataclass(frozen=True)
class BoundaryForcing:
    """Boundary condition family and its time signals.

    kind selects periodic wrap, even-derivative data (u, u_xx given) or
    odd-derivative data (u_x, u_xxx given).  alpha(t), beta(t) are the
    roll-frame signals; the physical wall values carry the extra factor
    parity_factor = (-1)**p.
    """

    kind: ForcingKind
    alpha: Optional[Signal] = None
    beta: Optional[Signal] = None
    parity_factor: float = 1.0

    def __post_init__(self):
        if self.kind is ForcingKind.PERIODIC and (
                self.alpha is not None or self.beta is not None):
            raise ValueError("periodic forcing carries no signals")
        if self.parity_factor not in (-1.0, 1.0):
            raise ValueError(
                f"parity_factor must be +1 or -1, got {self.parity_factor}")

    @classmethod
    def periodic(cls) -> "BoundaryForcing":
        return cls(kind=ForcingKind.PERIODIC)

    @classmethod
    def even_given(cls, alpha=0.0, beta=0.0, p: int = 1) -> "BoundaryForcing":
        return cls(kind=ForcingKind.EVEN_GIVEN, alpha=as_signal(alpha),
                   beta=as_signal(beta), parity_factor=(-1.0) ** int(p))

    @classmethod
    def odd_given(cls, alpha=0.0, beta=0.0, p: int = 1) -> "BoundaryForcing":
        return cls(kind=ForcingKind.ODD_GIVEN, alpha=as_signal(alpha),
                   beta=as_signal(beta), parity_factor=(-1.0) ** int(p))

    def alpha_at(self, t: float) -> float:
        return 0.0 if self.alpha is None else float(self.alpha(t))

    def beta_at(self, t: float) -> float:
        return 0.0 if self.beta is None else float(self.beta(t))
