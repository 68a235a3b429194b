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
  within 1e-16 absolute there).  A step writes its stages into buffers
  made by the first step and held until `run` returns (four nonlinear
  terms, two stage states and a scratch array), through ufunc out
  arguments, in the operand order of the closed formulas, so the numbers
  are those of the allocating form bit for bit; each step returns a fresh
  state.  Its eight transforms call the pocketfft gufuncs that
  `np.fft.irfft` and `np.fft.rfft` wrap (numpy >= 2.0), with the same
  arguments, so the results are those of `np.fft`: the stepper fixes n
  and makes the buffers itself, so the wrapper's dtype, norm, axis and
  output-shape handling would only add per-call overhead (a third to a
  half of a transform's cost at n = 512).

* BoundedStepper: second-order central differences on a bounded domain
  with two ghost samples per end.  Walls prescribe either (u, u_xx) or
  (u_x, u_xxx); ghost values are eliminated through the wall data.  Time
  stepping is Crank-Nicolson on the linear operator with second-order
  Adams-Bashforth on the cubic (CN/AB2; Ascher, Ruuth & Wetton, SIAM J.
  Numer. Anal. 32, 1995), second order overall with one evaluation of the
  cubic per step; the step obeys dt <= dx^2/2.
  The linear algebra is diagonal on a mirrored grid, as in the
  fast-transform direct solvers (Hockney, J. ACM 12, 1965; Buzbee, Golub
  & Nielson, SIAM J. Numer. Anal. 7, 1970).  With zero wall data the
  ghost rules are exactly the odd reflection (even walls, wall samples
  pinned at zero: DST-I) or the even reflection (odd walls: DCT-I), so
  the finite-difference operator A is the periodic five-point stencil on
  the mirror image of length 2(n-1), whose real FFT diagonalises it with
  symbol (r-1) + 8 s_k/dx^2 - 16 s_k^2/dx^4, s_k = sin^2(pi k/(2(n-1))).
  The wall data, and for even walls the pinned samples' coupling to the
  next two rows, are sources on four rows: their transforms divided by
  m = 1 - dt/2 symbol are tabulated once, and a step's source is four
  weights times that table, derived again only when the signal values,
  or the pinned samples a step starts from, change.  The state inside
  `run` is the mirrored spectrum v; a step costs two transforms,
  u = irfft(v) and G = dt/2 rfft(-u^3), and returns R v + S + (3 G - G')/m
  with R = (1 + dt/2 symbol)/m, through the pocketfft gufuncs as
  SpectralStepper calls them.  G' is the last step's G when v is the
  array that step returned; any other v, the first of every `run`
  included, starts afresh with G' = G, an IMEX Euler step on the cubic,
  so no caller resets the stepper.  Even
  walls keep the pinned samples as stepper state: the first step starts
  from the field's own, and the field `run` returns holds the data at
  its end time.

Each oracle has its own default step, `_default_dt`: 0.05 on a periodic
grid and 0.4 dx^2 on a bounded one, which `integrate_spectral`,
`integrate_bounded` and `analysis.oracle_amplitudes` take when no dt is
given.

Both steppers reject dt <= 0 and run through the loop `core._integrate`
that the lattice model shares, handing it their own `step(v, t)` and
their caller's callback as they are: the callback gets (i, v, t), v the
state the stepper holds, the spectrum, which its `to_physical` turns
into the field, and t the loop's clock, and a true return ends the run.
A non-finite initial field is rejected (ValueError) and a field that
turns non-finite while stepping raises DivergenceError.
`integrate_spectral`, `integrate_bounded` and `measure_growth_rate`
take their step counts from `core._step_count`.

Both walls sit h/2 from an element centre, so wall data carries the parity
factor (-1)**p of the parameters: the prescribed physical values are
u = (-1)^p alpha(t), u_xx = (-1)^p beta(t) (even case) or the analogous
odd-derivative pair.  A forcing whose own parity factor differs is
rejected.  The right wall applies the mirror-image condition (odd
derivatives flip sign under reflection) to its own signals.
"""

from __future__ import annotations

from math import factorial
from typing import Callable, Optional

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft
from numpy.polynomial.polynomial import polyval

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

# z^j coefficients (j = 0..15) of the Taylor series of q, f1, f2, f3, each
# one correctly rounded division: f1's 1/(j+1)! - 3/(j+2)! + 4/(j+3)! is
# (j+1)^2/(j+3)!, f2's 1/(j+2)! - 2/(j+3)! is (j+1)/(j+3)! and f3's
# 4/(j+3)! - 1/(j+2)! is (1-j)/(j+3)!; q's is 1/(2^(j+1) (j+1)!)
_ETD_SERIES = np.array([(1 / (2 ** (j + 1) * factorial(j + 1)), (j + 1) ** 2 / factorial(j + 3),
                         (j + 1) / factorial(j + 3), (1 - j) / factorial(j + 3)) for j in range(16)])


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
        self.dt = _positive_dt(dt)
        lam = growth_symbol(2.0 * np.pi * np.fft.rfftfreq(n, d=length / n), r)
        self.exp_full = np.exp(dt * lam)
        self.exp_half = np.exp(0.5 * dt * lam)
        # ETDRK4 coefficients: closed forms where |dt*lambda| >= 1/2, series below
        self.q, self.f1, f2, self.f3 = dt * _etd_coefficients(dt * lam)
        self.two_f2 = 2.0 * f2
        # two-thirds rule: modes above n // 3 are zeroed after each product
        self.cutoff = n // 3 + 1
        # the gufuncs np.fft.irfft and np.fft.rfft call, with their
        # arguments: irfft scaled by 1/n, rfft by 1 through the kernel of
        # n's parity
        self._inv_n = 1 / n
        self._rfft = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd
        self.physical = np.empty(n)   # the cube -u^3 of `nonlinear`
        self.held = None              # the step's buffers, see `step`

    def to_spectral(self, u: np.ndarray) -> np.ndarray:
        return np.fft.rfft(u)

    def to_physical(self, v: np.ndarray) -> np.ndarray:
        return np.fft.irfft(v, self.n)

    def nonlinear(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Dealiased rfft(-u^3) of u = irfft(v), written into out.

        u is held in out's own memory, seen as n reals, until the cube
        (-u u) u is formed in the physical buffer; rfft then overwrites it.
        """
        u = _pocketfft.irfft(v, self._inv_n, out=out.view(float)[:self.n])
        cube = np.negative(u, self.physical)
        np.multiply(cube, u, cube)
        np.multiply(cube, u, cube)
        self._rfft(cube, 1, out=out)
        out[self.cutoff:] = 0.0
        return out

    def step(self, v: np.ndarray, t: float) -> np.ndarray:
        """One ETDRK4 step of v; the problem is autonomous, so the start
        time t is not read.  The four stage nonlinear terms, two stage
        states and a scratch array are buffers made by the first step and
        held until `run` returns; each operation keeps the order of the
        closed formulas, and only the returned state is a fresh array."""
        if self.held is None:
            self.held = [np.empty(self.n // 2 + 1, dtype=complex) for _ in range(7)]
        n0, na, nb, nc, s, ev, vs = self.held
        q = self.q
        self.nonlinear(v, n0)
        np.multiply(self.exp_half, v, ev)
        np.multiply(q, n0, s)
        np.add(ev, s, vs)                    # va = e v + q n0
        self.nonlinear(vs, na)
        np.multiply(q, na, s)
        np.add(ev, s, ev)                    # vb = e v + q na
        self.nonlinear(ev, nb)
        np.multiply(2.0, nb, s)
        np.subtract(s, n0, s)
        np.multiply(q, s, s)
        np.multiply(self.exp_half, vs, vs)
        np.add(vs, s, vs)                    # vc = e va + q (2 nb - n0)
        self.nonlinear(vs, nc)
        out = self.exp_full * v
        np.multiply(self.f1, n0, s)
        np.add(out, s, out)
        np.add(na, nb, s)
        np.multiply(self.two_f2, s, s)
        np.add(out, s, out)
        np.multiply(self.f3, nc, s)
        np.add(out, s, out)
        return out

    def run(self, v: np.ndarray, n_steps: int,
            callback: Optional[Callable[[int, np.ndarray, float], object]] = None) -> np.ndarray:
        """Take n_steps steps from v on the loop's clock, which always
        starts at 0; callback(i, v, t) after step i, t the time it ended
        at, and a true return ends the run (`core._integrate`).  The
        step's buffers are released on return."""
        try:
            return _integrate("spectral solve", self.step, v, 0.0, self.dt, n_steps, callback)
        finally:
            self.held = None


def _default_dt(grid: FieldGrid) -> float:
    """The oracle's own step on grid: 0.05 periodic, 0.4 dx^2 bounded."""
    return 0.05 if grid.periodic else 0.4 * grid.dx ** 2


def integrate_spectral(grid: FieldGrid, params: ModelParams, t_end: float,
                       dt: Optional[float] = None) -> FieldGrid:
    """Advance a periodic grid over [0, t_end] in n equal steps of t_end/n,
    each at most dt, `_default_dt` when not given."""
    if not grid.periodic:
        raise ValueError("spectral stepping needs a periodic grid")
    n_steps = _step_count(t_end, _default_dt(grid) if dt is None else dt)
    # a step so large that the coefficients overflow, or an Inf field, fails
    # the loop's own NaN/Inf checks, which report it once
    with np.errstate(over="ignore", invalid="ignore"):
        stepper = SpectralStepper(len(grid.u), grid.length, params.r, t_end / n_steps)
        v = stepper.to_spectral(grid.u)
    v = stepper.run(v, n_steps)
    return FieldGrid(grid.x0, grid.dx, stepper.to_physical(v), True)


_MAX_PERIODS = 64   # longest domain, in periods 2*pi, a growth-rate run may take
# Largest departure of log|u_k| from its fitted line.  At r = 0.1, k = 1,
# T = 5, dt = 0.02 it measured 5.7e-13 for eps0 = 1e-6, 5.8e-7 for 1e-3
# (rate off by 1.3e-6) and 7.6e-3 for 0.3 (rate off by 0.077; 7.5e-3 at
# the derived step 0.1, the rate as far off).
_LINEAR_TOL = 1e-5
# A decaying mode is fitted down to this fraction of its start.  Far below
# it the mode meets the rounding that the cubic's transforms leave in it
# and log|u_k| flattens: at r = -2, k = 2.5 (and r = 0, k = 2.5) it left
# its line by 1e-6 only below 6e-65 (7e-52) of its start, for eps0 = 1e-6
# and 1e-3 alike.
_FIT_FLOOR = 1e-30
# The fewest samples a fit takes.  A mode that decays by e^-x per step,
# stiff for the cubic's stages when x is large, leaves an error in the
# first step that the fitted line absorbs (the misfit check sees a third
# of it at three samples), growing as eps0^2 e^x.  Ten samples above the
# floor bound x by ln(1e30)/9 = 7.7, and a run that stays above the floor
# over nine steps decays by less per step.  At r = -10, dt = 0.02 the rate
# was off by 2e-8 at x = 17 (4 samples) and 3e-5 at x = 25 (3), but by
# 8e-13 at x = 7.6 (10 samples) for eps0 = 1e-6, and by 7e-7 for 1e-3,
# within the 1.3e-6 by which the cubic itself moves mode 1's rate at
# r = 0.1 for that seed (_LINEAR_TOL).
_FIT_SAMPLES = 10


def _commensurate_periods(k: float) -> tuple[int, int]:
    """Smallest q <= _MAX_PERIODS with q*k a whole number; returns (q, mode
    index q*k)."""
    for q in range(1, _MAX_PERIODS + 1):
        mode = round(q * k)
        if mode >= 1 and abs(q * k - mode) <= 1e-9 * max(1.0, q * k):
            return q, mode
    raise ValueError(
        f"wavenumber {k} is not commensurate with any domain up to {_MAX_PERIODS} periods")


def _fit_steps(r: float, k: float, T: float, dt: Optional[float] = None) -> int:
    """Steps of a growth-rate fit of mode k over T, each at most dt, or when
    dt is None at most the step `measure_growth_rate` derives from T and
    lambda_k; at least _FIT_SAMPLES - 1."""
    if dt is None:
        lam = abs(float(growth_symbol(k, r)))
        dt = max(0.02, min(T / 50, 2 / lam if lam else 1.0, 1.0))
    return max(_FIT_SAMPLES - 1, _step_count(T, dt))


def measure_growth_rate(params: ModelParams, k: float, eps0: float, T: float,
                        dt: Optional[float] = None) -> float:
    """Fitted growth rate of mode k from a small-amplitude spectral run.

    Seeds u = eps0*cos(kx) on the smallest commensurate periodic domain,
    sampled at 512 points, and returns the least-squares slope of
    log|u_hat_k|(t) over at least _FIT_SAMPLES - 1 = 9 steps of at most dt.

    ETDRK4 propagates the linear symbol lambda_k = r - (1 - k^2)^2 exactly,
    so for a linear seed the rate does not depend on the step, and a dt of
    None takes max(0.02, min(T/50, 2/|lambda_k|, 1)), the 2/|lambda_k| term
    dropped where lambda_k = 0.  T/50 keeps 50 samples for the misfit
    check.  2/|lambda_k| keeps a fast-decaying mode out of the stiff
    regime, where the cubic, held over a step much longer than the mode
    lives, fails the check (at dt = 0.5 a mode with lambda_k = -74 does,
    which passes at 0.02, 0.1 and 0.25).  The cap 1 keeps an absurd T a
    step-budget error.  The floor 0.02 means no mode takes more steps than
    at a dt of 0.02, and every mode with |lambda_k| > 100 exactly as many.

    The seed must stay in the linear regime, else DivergenceError: no
    linear mode outgrows exp(r t), so the run stops once |u_hat_k| passes
    100 |u_hat_k(0)| exp(max(r, 0) t), and the fit is rejected when
    log|u_hat_k| departs from its line by more than _LINEAR_TOL.  A
    decaying mode is fitted down to _FIT_FLOOR = 1e-30 of its start: the
    run's callback ends it at its first sample at or below that (0 among
    them) by returning True, and the samples before it are fitted, or,
    when fewer than _FIT_SAMPLES = 10 are, the fit is DivergenceError:
    the step is then too stiff for the cubic's stages to leave the rate
    alone.
    """
    if not 0.0 < eps0 < np.inf:
        raise ValueError(f"eps0 must be finite and positive, got {eps0}")
    if not np.isfinite(k):
        raise ValueError(f"wavenumber k must be finite, got {k}")
    q, mode = _commensurate_periods(k)
    n = 512
    if mode > n // 3:
        raise ValueError(f"mode {mode} not resolvable on {n} dealiased samples")
    length = 2.0 * np.pi * q
    x = length * np.arange(n) / n
    u0 = eps0 * np.cos(k * x)
    n_steps = _fit_steps(params.r, k, T, dt)
    stepper = SpectralStepper(n, length, params.r, T / n_steps)
    v = stepper.to_spectral(u0)
    amps = np.full(n_steps + 1, abs(v[mode]))
    times = np.linspace(0.0, T, n_steps + 1)
    with np.errstate(over="ignore"):   # an infinite ceiling bounds nothing
        ceiling = 100.0 * amps[0] * np.exp(max(params.r, 0.0) * times)
    floor = _FIT_FLOOR * amps[0]

    def record(i, vv, t):
        amps[i] = abs(vv[mode])
        if amps[i] > ceiling[i]:
            raise DivergenceError(
                f"spectral solve diverged at step {i}, t={times[i]:.6g}: mode {k} "
                "reached the nonlinear regime (|u_k| > 100 |u_k(0)| exp(max(r, 0) t))")
        return amps[i] <= floor

    stepper.run(v, n_steps, callback=record)
    # the samples past the one the run stopped at still hold amps[0], which is
    # above the floor, so the first sample at or below it is where the run stopped
    kept = next((i for i in range(1, n_steps + 1) if amps[i] <= floor), n_steps + 1)
    if kept < _FIT_SAMPLES:
        raise DivergenceError(
            f"growth-rate fit of mode {k} failed: |u_k| fell below {_FIT_FLOOR:g} of its "
            f"start at t={times[kept]:.6g}, before the {_FIT_SAMPLES} samples a fit needs")
    times, logs = times[:kept], np.log(amps[:kept])
    fit = np.polyfit(times, logs, 1)
    misfit = float(np.max(np.abs(logs - np.polyval(fit, times))))
    if not misfit <= _LINEAR_TOL:   # a NaN misfit fails too
        raise DivergenceError(
            f"growth-rate fit of mode {k} failed: log|u_k| departs from its line by "
            f"{misfit:.3g} > {_LINEAR_TOL:g} (the seed eps0={eps0:g} is not linear)")
    return float(fit[0])


class BoundedStepper:
    """Crank-Nicolson/AB2 stepper for a bounded grid with wall data at both
    ends, state held as the mirrored spectrum.

    The linear operator is A u + g(t): the five-point stencil of
    (r-1) - 2 D2 - D4 with the ghosts eliminated through the wall rules,
    and g(t) the wall-data terms.  With zero data the ghost rules are
    reflections: u_{-1} = 2 u_0 - u_1 with u_0 = 0 is the odd one (even
    walls, DST-I), u_{-1} = u_1 and u_{-2} = u_2 the even one (odd walls,
    DCT-I).  So on the vectors [0, u_1 .. u_{n-2}, 0, -u_{n-2} .. -u_1]
    (even walls, wall samples pinned) and [u_0 .. u_{n-1}, u_{n-2} .. u_1]
    (odd walls) the rows of A are the periodic stencil of length
    2(n - 1), diagonal on their real FFT with the symbol `symbol`.  The
    wall data, and for even walls the pinned samples through A[1, 0] and
    A[2, 0], enter as sources on four rows.  Both walls sit h/2 from an
    element centre, so both carry the parity factor (-1)^p of the
    parameters.  The cubic is Adams-Bashforth: a step carries the last
    step's cubic term forward when its input is the array that step
    returned, and starts afresh otherwise (see `step`).
    """

    def __init__(self, grid: FieldGrid, params: ModelParams,
                 forcing: BoundaryForcing, dt: float):
        if grid.periodic:
            raise ValueError("bounded stepping needs a non-periodic grid")
        if forcing.kind is ForcingKind.PERIODIC:
            raise ValueError("bounded stepping rejects periodic forcing")
        self.n = n = len(grid.u)
        if n < 7:
            raise ValueError("bounded grid too small")
        self.dx = dx = grid.dx
        if _positive_dt(dt) > 0.5 * dx ** 2 * (1 + 1e-12):
            raise ValueError(f"dt={dt} unstable: exceeds dx^2/2={0.5 * dx ** 2:.4g}")
        self.dt = dt
        self.forcing, self.kind, self.parity = forcing, forcing.kind, params.parity_factor
        if forcing.parity_factor != self.parity:
            raise ValueError(f"wall parity factors must both be (-1)^p = {self.parity:g}")
        inv2, inv4 = 1.0 / dx ** 2, 1.0 / dx ** 4
        s = np.sin(np.pi * np.arange(n) / (2 * (n - 1))) ** 2
        self.symbol = (params.r - 1.0) + 8.0 * inv2 * s - 16.0 * inv4 * s * s
        m = 1.0 - dt / 2.0 * self.symbol
        # R = (1 + dt/2 symbol)/m as complex, and 1/m with each entry twice,
        # to scale a spectrum seen as floats: neither mixes dtypes in a step
        self._gain = ((1.0 + dt / 2.0 * self.symbol) / m).astype(complex)
        self._inv_m = np.repeat(1.0 / m, 2)
        if self.kind is ForcingKind.EVEN_GIVEN:
            # odd mirror; a pinned sample couples to the next two rows
            # through A[1, 0] and A[2, 0]
            self.sign, self.pinned, rows = -1.0, [0, n - 1], [1, 2, n - 3, n - 2]
            self.coupling = (-2.0 * inv2 + 2.0 * inv4, -inv4)
        else:
            self.sign, self.pinned, rows = 1.0, [], [0, 1, n - 2, n - 1]
        # dt/2 times the mirrored transform of each source row, divided by m
        unit = np.zeros((4, n))
        unit[range(4), rows] = dt / 2.0
        self.sources = self.to_spectral(unit) / m
        self.walls = (0.0,) * len(self.pinned)   # the pinned samples, see `run`
        self._wall_key = None   # what `_source` was derived from
        self._end = (None, None)   # the last step's end time and its signals
        # the step's buffers: the mirrored field, its cube and a spectrum;
        # the mirrored length 2(n - 1) is even, so rfft takes the even kernel
        self._inv_len, self._spec = 1 / (2 * (n - 1)), np.empty(n, dtype=complex)
        self._u, self._cube = np.empty((2, 2 * (n - 1)))
        self._spec_re = self._spec.view(float)
        # the cubic terms G of the last step and of this one, and the array
        # the last step returned, see `step`
        self._cubic, self._last = tuple(np.empty((2, n), dtype=complex)), None

    def to_spectral(self, u: np.ndarray) -> np.ndarray:
        """rfft of the mirror image of u (along its last axis), the pinned
        samples zeroed."""
        mirrored = np.concatenate((u, self.sign * u[..., -2:0:-1]), axis=-1)
        mirrored[..., self.pinned] = 0.0
        return np.fft.rfft(mirrored)

    def to_physical(self, v: np.ndarray) -> np.ndarray:
        """The n samples of irfft(v), the pinned ones set to `walls`."""
        u = np.fft.irfft(v, 2 * (self.n - 1))[:self.n].copy()
        u[self.pinned] = self.walls
        return u

    def _data(self, signals: tuple) -> list[float]:
        """Wall-data terms g on the four source rows (g is zero elsewhere),
        from `forcing.signals` at a time."""
        dx, p = self.dx, self.parity
        (al, bl), (ar, br) = signals
        al, bl, ar, br = p * al, p * bl, p * ar, p * br
        if self.kind is ForcingKind.EVEN_GIVEN:
            # row 1 takes the ghost u_{-1} = 2 u_0 - u_1 + dx^2 P beta
            return [-bl / dx ** 2, 0.0, 0.0, -br / dx ** 2]
        # ghosts u_{-1} = u_1 - 2 dx P alpha, u_{-2} = u_2 - 4 dx P alpha - 2 dx^3 P beta
        return [4.0 * al / dx - 4.0 * al / dx ** 3 + 2.0 * bl / dx, 2.0 * al / dx ** 3,
                2.0 * ar / dx ** 3, 4.0 * ar / dx - 4.0 * ar / dx ** 3 + 2.0 * br / dx]

    def _wall_terms(self, t: float) -> np.ndarray:
        """Source spectrum of the step from t: dt/2 (g(t) + g(t + dt)), and
        for even walls A's coupling to the pinned samples at t and their
        data at t + dt, transformed and divided by m.  Derived again only
        when those values change; the pinned samples move to their data at
        t + dt every step, as a sample carries the sign of its zero.  A
        step that starts at exactly the last one's end time reuses its
        signals there."""
        s0 = self._end[1] if t == self._end[0] else self.forcing.signals(t)
        s1 = self.forcing.signals(t + self.dt)
        self._end = (t + self.dt, s1)
        start = self.walls
        if self.pinned:
            self.walls = (self.parity * s1[0][0], self.parity * s1[1][0])
        key = (s0, s1, start)
        if key != self._wall_key:
            weights = [a + b for a, b in zip(self._data(s0), self._data(s1))]
            if self.pinned:
                (c1, c2), (left, right) = self.coupling, (a + b for a, b in zip(start, self.walls))
                weights = [weights[0] + c1 * left, weights[1] + c2 * left,
                           weights[2] + c2 * right, weights[3] + c1 * right]
            self._wall_key, self._source = key, np.dot(weights, self.sources)
        return self._source

    def step(self, v: np.ndarray, t: float) -> np.ndarray:
        """One step from time t of the mirrored spectrum v, two transforms:
        v_new = R v + S + (3 G - G_prev)/m with G = dt/2 rfft(-u^3),
        u = irfft(v), R = (1 + dt/2 symbol)/m, m = 1 - dt/2 symbol and S
        the wall terms of `_wall_terms`.  G_prev is the last step's G when
        v is the very array that step returned (an identity test); any
        other v starts afresh with G_prev = G, an IMEX Euler step on the
        cubic."""
        u, cube, spec, spec_re = self._u, self._cube, self._spec, self._spec_re
        prev, g = self._cubic
        out = self._gain * v
        out += self._wall_terms(t)
        _pocketfft.irfft(v, self._inv_len, out=u)
        np.multiply(u, u, cube)
        cube *= u
        _pocketfft.rfft_n_even(cube, -self.dt / 2.0, out=g)
        np.multiply(g, 3.0, spec)
        spec -= prev if v is self._last else g
        np.multiply(spec_re, self._inv_m, spec_re)
        out += spec
        self._cubic, self._last = (g, prev), out
        return out

    def run(self, u: np.ndarray, t0: float, n_steps: int,
            callback: Optional[Callable[[int, np.ndarray, float], object]] = None) -> np.ndarray:
        """Take n_steps steps from the field u at time t0 on the loop's
        clock (t += dt), so each step starts at exactly the last one's end
        time; callback(i, v, t) after step i, v the mirrored spectrum
        (`to_physical` gives its field) and t the time the step ended at,
        and a true return ends the run (`core._integrate`).  The pinned
        samples start from u's own and end at their data; the field at the
        end is returned."""
        if not np.isfinite(u).all():
            raise ValueError("bounded solve: start state contains NaN/Inf")
        self.walls, self._wall_key, self._end = tuple(u[self.pinned].tolist()), None, (None, None)
        v = _integrate("bounded solve", self.step, self.to_spectral(u), t0, self.dt, n_steps,
                       callback)
        return self.to_physical(v)


def integrate_bounded(grid: FieldGrid, params: ModelParams,
                      forcing: BoundaryForcing, t_end: float,
                      dt: Optional[float] = None, t0: float = 0.0) -> FieldGrid:
    """Advance a bounded grid from t0 to t_end in n equal steps of
    span/n, each at most dt, `_default_dt` when not given.  The wall
    signals are read at the loop's accumulated clock, sums of span/n that
    rounding can move off t_end (`core._integrate`)."""
    span = t_end - t0
    n_steps = _step_count(span, _default_dt(grid) if dt is None else dt)
    stepper = BoundedStepper(grid, params, forcing, span / n_steps)
    u = stepper.run(grid.u, t0, n_steps)
    return FieldGrid(grid.x0, grid.dx, u, False)
