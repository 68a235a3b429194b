"""Direct high-resolution integration of u_t = r u - (1 + d_xx)^2 u - u^3.

Two schemes:

* SpectralStepper: Fourier pseudospectral ETDRK4 on periodic domains.  The
  stiff linear operator is propagated exactly mode by mode with symbol
  lambda(k) = r - (1 - k^2)^2; the cubic term is evaluated in physical
  space and dealiased by the two-thirds rule.  ETDRK4 follows Kassam &
  Trefethen (SIAM J. Sci. Comput. 26, 2005).  Its coefficients are
  functions of z = dt*lambda: the closed forms where |z| >= 1/2, and a
  16-term Taylor series below, where the closed forms lose digits to
  cancellation.  Against 50-digit references they agree within 1e-13
  relative (5.4e-14 measured; f1, which changes sign near z = -2.688,
  within 1e-16 absolute there).

* BoundedStepper: second-order central differences on a bounded domain
  with two ghost samples per end.  Walls prescribe either (u, u_xx) or
  (u_x, u_xxx); ghost values are eliminated through the wall data.  Time
  stepping is Crank-Nicolson on the linear operator with a Heun (explicit
  trapezoid) treatment of the cubic, second order overall and self-starting.
  The banded matrix I - dt/2 A is LU-factorised once per stepper; each step
  costs two triangular-solve pairs against those factors.

Both steppers reject dt <= 0 and run through the loop `core._integrate`
that the lattice model shares: a non-finite initial field is rejected
(ValueError) and a field that turns non-finite while stepping raises
DivergenceError.  `integrate_spectral`, `integrate_bounded` and
`measure_growth_rate` take their step counts from `core._step_count`.

Wall data carries the parity factor (-1)**p: the prescribed physical values
are u = (-1)^p alpha(t), u_xx = (-1)^p beta(t) (even case) or the analogous
odd-derivative pair.  The right wall applies the mirror-image condition
(odd derivatives flip sign under reflection).
"""

from __future__ import annotations

from enum import Enum
from math import factorial
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .core import (
    BoundaryForcing,
    DivergenceError,
    FieldGrid,
    ForcingKind,
    ModelParams,
    _integrate,
    _positive_dt,
    _step_count,
)

DEFAULT_C_STAB = 0.5
# z^j coefficients (j = 0..15) of the Taylor series of q, f1, f2, f3, each
# one correctly rounded division: f1's 1/(j+1)! - 3/(j+2)! + 4/(j+3)! is
# (j+1)^2/(j+3)!, f2's 1/(j+2)! - 2/(j+3)! is (j+1)/(j+3)! and f3's
# 4/(j+3)! - 1/(j+2)! is (1-j)/(j+3)!; q's is 1/(2^(j+1) (j+1)!)
_ETD_SERIES = np.array([(1 / (2 ** (j + 1) * factorial(j + 1)), (j + 1) ** 2 / factorial(j + 3),
                         (j + 1) / factorial(j + 3), (1 - j) / factorial(j + 3)) for j in range(16)])


class Scheme(Enum):
    SPECTRAL_ETD = "spectral-etd"
    BOUNDED_IMEX = "bounded-imex"


def growth_symbol(k, r: float):
    """Linear growth rate r - (1 - k^2)^2 of mode exp(ikx)."""
    k = np.asarray(k, dtype=float)
    return r - (1.0 - k ** 2) ** 2


def _etd_coefficients(z: np.ndarray) -> np.ndarray:
    """ETDRK4 coefficients q, f1, f2, f3 divided by dt, at z = dt*lambda
    (rows of the result): the closed forms where |z| >= 1/2, the Taylor
    series by Horner below, where the closed forms cancel."""
    small = np.abs(z) < 0.5
    w = np.where(small, 1.0, z)   # a placeholder where the series overwrites
    ew, w3 = np.exp(w), w ** 3
    out = np.array([np.expm1(w / 2.0) / w,
                    (-4.0 - w + ew * (4.0 - 3.0 * w + w * w)) / w3,
                    (2.0 + w + ew * (w - 2.0)) / w3,
                    (-4.0 - 3.0 * w - w * w + ew * (4.0 - w)) / w3])
    out[:, small] = polyval(z[small], _ETD_SERIES)
    return out


class SpectralStepper:
    """ETDRK4 stepper for the periodic problem, state held as rfft(u)."""

    def __init__(self, n: int, length: float, r: float, dt: float):
        self.n = n
        self.length = length
        self.dt = _positive_dt(dt)
        self.k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
        lam = growth_symbol(self.k, r)
        self.exp_full = np.exp(dt * lam)
        self.exp_half = np.exp(0.5 * dt * lam)
        # ETDRK4 coefficients: closed forms where |dt*lambda| >= 1/2, series below
        self.q, self.f1, self.f2, self.f3 = dt * _etd_coefficients(dt * lam)
        # two-thirds rule: modes above n // 3 are zeroed after each product
        self.cutoff = n // 3 + 1

    def to_spectral(self, u: np.ndarray) -> np.ndarray:
        return np.fft.rfft(u)

    def to_physical(self, v: np.ndarray) -> np.ndarray:
        return np.fft.irfft(v, self.n)

    def nonlinear(self, v: np.ndarray) -> np.ndarray:
        u = self.to_physical(v)
        w = np.fft.rfft(-u * u * u)
        w[self.cutoff:] = 0.0
        return w

    def step(self, v: np.ndarray) -> np.ndarray:
        n0 = self.nonlinear(v)
        va = self.exp_half * v + self.q * n0
        na = self.nonlinear(va)
        vb = self.exp_half * v + self.q * na
        nb = self.nonlinear(vb)
        vc = self.exp_half * va + self.q * (2.0 * nb - n0)
        nc = self.nonlinear(vc)
        return (self.exp_full * v + self.f1 * n0 + 2.0 * self.f2 * (na + nb)
                + self.f3 * nc)

    def run(self, v: np.ndarray, n_steps: int,
            callback: Optional[Callable[[int, np.ndarray], None]] = None) -> np.ndarray:
        """Take n_steps steps from v; callback(i, v) after step i."""
        return _integrate("spectral solve", lambda v, t: self.step(v), v,
                          (i * self.dt for i in range(n_steps + 1)), callback)


def integrate_spectral(grid: FieldGrid, params: ModelParams, t_end: float,
                       dt: float) -> FieldGrid:
    """Advance a periodic grid to t_end (step shrunk to land exactly)."""
    if not grid.periodic:
        raise ValueError("spectral stepping needs a periodic grid")
    n = len(grid.u)
    if n < 4 or (n & (n - 1)) != 0:
        raise ValueError(f"sample count must be a power of two, got {n}")
    n_steps = _step_count(t_end, dt)
    stepper = SpectralStepper(n, grid.length, params.r, t_end / n_steps)
    with np.errstate(invalid="ignore"):   # an Inf field fails the loop's start check
        v = stepper.to_spectral(grid.u)
    v = stepper.run(v, n_steps)
    return FieldGrid(grid.x0, grid.dx, stepper.to_physical(v), True)


def _commensurate_periods(k: float, max_periods: int = 64) -> tuple[int, int]:
    """Smallest q with q*k a whole number; returns (q, mode index q*k)."""
    for q in range(1, max_periods + 1):
        mode = round(q * k)
        if mode >= 1 and abs(q * k - mode) <= 1e-9 * max(1.0, q * k):
            return q, mode
    raise ValueError(
        f"wavenumber {k} is not commensurate with any domain up to {max_periods} periods")


def measure_growth_rate(params: ModelParams, k: float, eps0: float, T: float,
                        dt: float = 0.02) -> float:
    """Fitted growth rate of mode k from a small-amplitude spectral run.

    Seeds u = eps0*cos(kx) on the smallest commensurate periodic domain,
    sampled at 512 points, and returns the least-squares slope of
    log|u_hat_k|(t) over at least two steps.
    """
    if not 0.0 < eps0 < np.inf:
        raise ValueError(f"eps0 must be finite and positive, got {eps0}")
    q, mode = _commensurate_periods(k)
    n = 512
    if mode > n // 3:
        raise ValueError(f"mode {mode} not resolvable on {n} dealiased samples")
    length = 2.0 * np.pi * q
    x = length * np.arange(n) / n
    u0 = eps0 * np.cos(k * x)
    n_steps = max(2, _step_count(T, dt))
    stepper = SpectralStepper(n, length, params.r, T / n_steps)
    v = stepper.to_spectral(u0)
    amp0 = abs(v[mode])
    amps = np.empty(n_steps + 1)
    amps[0] = amp0

    def record(i, vv):
        amps[i] = abs(vv[mode])
        if params.r <= 0 and amps[i] > 100.0 * amp0:
            raise DivergenceError(
                f"spectral solve diverged at step {i}, t={times[i]:.6g}: mode {k} "
                "reached the nonlinear regime (|u_k| > 100 eps0 at r <= 0)")

    times = np.linspace(0.0, T, n_steps + 1)
    stepper.run(v, n_steps, callback=record)
    return float(np.polyfit(times, np.log(amps), 1)[0])


class BoundedStepper:
    """IMEX stepper for a bounded grid with wall data at both ends.

    The discrete linear operator is A u + g(t) where A folds the ghost
    eliminations into banded coefficients and g(t) collects the wall-data
    terms.  One step does Crank-Nicolson on A and explicit trapezoid on
    the cubic.  The matrix I - dt/2 A never changes, so it is LU-factorised
    once per stepper (LAPACK gbtrf); each step then does two banded solves,
    each a pair of triangular solves against those factors (gbtrs).
    """

    def __init__(self, grid: FieldGrid, params: ModelParams,
                 forcing: BoundaryForcing, dt: float,
                 forcing_right: Optional[BoundaryForcing] = None,
                 c_stab: float = DEFAULT_C_STAB):
        if grid.periodic:
            raise ValueError("bounded stepping needs a non-periodic grid")
        if forcing.kind is ForcingKind.PERIODIC:
            raise ValueError("bounded stepping rejects periodic forcing")
        self.n = len(grid.u)
        if self.n < 7:
            raise ValueError("bounded grid too small")
        self.dx = grid.dx
        if _positive_dt(dt) > c_stab * self.dx ** 2 * (1 + 1e-12):
            raise ValueError(
                f"dt={dt} unstable: exceeds c_stab*dx^2={c_stab * self.dx ** 2:.4g}")
        self.dt = dt
        self.left = forcing
        self.right = forcing if forcing_right is None else forcing_right
        if self.right.kind is not forcing.kind:
            raise ValueError("both walls must use the same condition kind")
        self.kind = forcing.kind
        self._build(params.r)

    # -- operator assembly -------------------------------------------------

    def _build(self, r: float) -> None:
        n, dx = self.n, self.dx
        inv2, inv4 = 1.0 / dx ** 2, 1.0 / dx ** 4
        # interior rows of A = (r-1) - 2 D2 - D4
        dm2 = np.full(n, -inv4)
        dm1 = np.full(n, -2.0 * inv2 + 4.0 * inv4)
        d0 = np.full(n, (r - 1.0) + 4.0 * inv2 - 6.0 * inv4)
        dp1 = np.full(n, -2.0 * inv2 + 4.0 * inv4)
        dp2 = np.full(n, -inv4)

        if self.kind is ForcingKind.EVEN_GIVEN:
            # wall samples pinned to the data; one ghost from the u_xx value
            self.pinned = np.array([0, n - 1])
            self.g_rows = np.array([1, n - 2])
            d0[0] = d0[-1] = 1.0
            dp1[0] = dp2[0] = 0.0
            dm1[-1] = dm2[-1] = 0.0
            # row 1: ghost u_{-1} = 2 u_0 - u_1 + dx^2 P beta
            dm1[1] = -2.0 * inv2 + 2.0 * inv4
            d0[1] = (r - 1.0) + 4.0 * inv2 - 5.0 * inv4
            # row n-2 mirrors row 1
            dp1[n - 2] = -2.0 * inv2 + 2.0 * inv4
            d0[n - 2] = (r - 1.0) + 4.0 * inv2 - 5.0 * inv4
        else:
            # odd data: wall samples evolve, two ghosts per end
            self.pinned = np.array([], dtype=int)
            self.g_rows = np.array([0, 1, n - 2, n - 1])
            d0[0] = (r - 1.0) + 4.0 * inv2 - 6.0 * inv4
            dp1[0] = -4.0 * inv2 + 8.0 * inv4
            dp2[0] = -2.0 * inv4
            d0[1] = (r - 1.0) + 4.0 * inv2 - 7.0 * inv4
            d0[n - 1] = (r - 1.0) + 4.0 * inv2 - 6.0 * inv4
            dm1[n - 1] = -4.0 * inv2 + 8.0 * inv4
            dm2[n - 1] = -2.0 * inv4
            d0[n - 2] = (r - 1.0) + 4.0 * inv2 - 7.0 * inv4

        # A as five stencil rows, weights of u_i, u_{i-1}, u_{i-2}, u_{i+1},
        # u_{i+2} in the order _apply_a sums them; taps past an end are zero.
        # `taps` indexes u padded with two zeros per end.
        self.stencil = np.zeros((5, n))
        self.stencil[0] = d0
        self.stencil[1, 1:] = dm1[1:]
        self.stencil[2, 2:] = dm2[2:]
        self.stencil[3, :-1] = dp1[:-1]
        self.stencil[4, :-2] = dp2[:-2]
        self.taps = np.arange(n) + np.array([2, 1, 0, 3, 4])[:, None]
        self._padded = np.zeros(n + 4)
        # banded storage for I - dt/2 A, solve_banded layout (2, 2)
        ab = np.zeros((5, n))
        half = self.dt / 2.0
        ab[0, 2:] = -half * dp2[:-2]
        ab[1, 1:] = -half * dp1[:-1]
        ab[2, :] = 1.0 - half * d0
        ab[3, :-1] = -half * dm1[1:]
        ab[4, :-2] = -half * dm2[2:]
        for row in self.pinned:
            ab[2, row] = 1.0
            if row + 1 < n:
                ab[1, row + 1] = 0.0
            if row + 2 < n:
                ab[0, row + 2] = 0.0
            if row - 1 >= 0:
                ab[3, row - 1] = 0.0
            if row - 2 >= 0:
                ab[4, row - 2] = 0.0
        self.ab_minus = ab
        # gbtrf needs kl = 2 extra leading rows for the fill-in of pivoting
        padded = np.zeros((7, n))
        padded[2:] = ab
        self.lu, self.piv, info = dgbtrf(padded, 2, 2, overwrite_ab=True)
        if info != 0:
            raise ValueError(f"I - dt/2 A is singular (gbtrf info={info})")

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - dt/2 A) x = rhs with the stored factors; overwrites rhs."""
        x, info = dgbtrs(self.lu, 2, 2, rhs, self.piv, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal argument {-info} to gbtrs")
        return x

    def _apply_a(self, u: np.ndarray) -> np.ndarray:
        self._padded[2:-2] = u
        terms = self._padded[self.taps]
        terms *= self.stencil
        # reducing over axis 0 adds the five rows one after another, so each
        # sample sums its terms in stencil order (the order the tests pin)
        y = np.add.reduce(terms, axis=0)
        y[self.pinned] = 0.0
        return y

    def _data(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Wall-data terms g(t) on the rows g_rows (g is zero elsewhere)
        and the values of the pinned samples."""
        dx = self.dx
        pl = self.left.parity_factor
        pr = self.right.parity_factor
        al, bl = pl * self.left.alpha_at(t), pl * self.left.beta_at(t)
        ar, br = pr * self.right.alpha_at(t), pr * self.right.beta_at(t)
        if self.kind is ForcingKind.EVEN_GIVEN:
            return np.array([-bl / dx ** 2, -br / dx ** 2]), np.array([al, ar])
        g = np.array([4.0 * al / dx - 4.0 * al / dx ** 3 + 2.0 * bl / dx,
                      2.0 * al / dx ** 3,
                      2.0 * ar / dx ** 3,
                      4.0 * ar / dx - 4.0 * ar / dx ** 3 + 2.0 * br / dx])
        return g, np.empty(0)

    def _cubic(self, u: np.ndarray) -> np.ndarray:
        w = -u
        w *= u
        w *= u
        w[self.pinned] = 0.0
        return w

    def step(self, u: np.ndarray, t: float) -> np.ndarray:
        dt = self.dt
        half = dt / 2.0
        g0, _ = self._data(t)
        g1, walls = self._data(t + dt)
        base = u + half * self._apply_a(u)
        base[self.g_rows] += half * (g0 + g1)
        n0 = self._cubic(u)
        rhs = dt * n0
        rhs += base
        rhs[self.pinned] = walls
        u_star = self._solve(rhs)
        rhs = self._cubic(u_star)
        rhs += n0
        rhs *= half
        rhs += base
        rhs[self.pinned] = walls
        return self._solve(rhs)

    def run(self, u: np.ndarray, t0: float, n_steps: int,
            callback: Optional[Callable[[int, np.ndarray], None]] = None) -> np.ndarray:
        """Take n_steps steps from u at time t0, step i starting at
        t0 + (i - 1) dt; callback(i, u) after step i."""
        return _integrate("bounded solve", self.step, u,
                          (t0 + i * self.dt for i in range(n_steps + 1)), callback)


def integrate_bounded(grid: FieldGrid, params: ModelParams,
                      forcing: BoundaryForcing, t_end: float, dt: float,
                      t0: float = 0.0,
                      forcing_right: Optional[BoundaryForcing] = None,
                      c_stab: float = DEFAULT_C_STAB) -> FieldGrid:
    """Advance a bounded grid from t0 to t_end (step shrunk to land exactly)."""
    span = t_end - t0
    n_steps = _step_count(span, dt)
    stepper = BoundedStepper(grid, params, forcing, span / n_steps,
                             forcing_right, c_stab)
    u = stepper.run(grid.u, t0, n_steps)
    return FieldGrid(grid.x0, grid.dx, u, False)
