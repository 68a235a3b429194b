"""Maps between field space and amplitude space.

Amplitudes are defined as element averages against the roll modes,

    a_j = (1/h) int u(x) exp(-ix) dx,    b_j = (1/h) int u(x) exp(+ix) dx,

integrated over element j.  The in-element field is reconstructed as

    u_j(x) = E+(X) exp(+ix) + E-(X) exp(-ix),

where X is the coordinate relative to the element centre and the envelopes
E+/E- are low-degree polynomials in X.  In the interior the envelopes carry
first-order neighbour corrections built from the integer-offset composites
d2 v_j = v_{j+1} - 2 v_j + v_{j-1} and md v_j = (v_{j+1} - v_{j-1})/2:

    E+ = a_j + (g/4h) [ (d2 a_j - 2i md b_j) + (4 md a_j - 2i d2 b_j) X ]
    E- = b_j + (g/4h) [ (d2 b_j + 2i md a_j) + (4 md b_j + 2i d2 a_j) X ]

In the wall element the corrections also involve the wall signals alpha and
beta through fixed quadratic profiles whose coefficients are tabulated
below.  All formulas assume the canonical frame (element centres at
multiples of 2*pi) so that exp(+-ix) = exp(+-iX) inside every element.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from numpy.polynomial.polynomial import polyval

from .core import (
    AmplitudeState,
    BoundaryForcing,
    FieldGrid,
    ForcingKind,
    ModelParams,
    _resolve_neighbours,
)
from .amplitude_model import SignChoice

# Wall-element forcing-profile coefficients for the exp(+ix) sector.  Each
# signal contributes  s*(g^2/h) * [CONST + SLOPE*X + CURVE*(h^2 - 12 X^2)]
# with s = +1/-1 for even/odd wall data.  The exp(-ix) sector
# carries the complex conjugates (exactly, since the signals are real).
ALPHA_PLUS_CONST = (7 + 5j) / 16
ALPHA_PLUS_SLOPE = -(2 + 3j) / 4
ALPHA_PLUS_CURVE = (1 - 1j) / 96
BETA_PLUS_CONST = (3 + 1j) / 16
BETA_PLUS_SLOPE = -1j / 4
BETA_PLUS_CURVE = (1 - 1j) / 96


def _interior_coefficients(state: AmplitudeState, params: ModelParams,
                           jm, j, jp) -> tuple:
    """Constant and slope of E+ and of E- for element(s) j with neighbours
    jm and jp (integers, or index arrays for many elements at once)."""
    a, b = state.a, state.b
    d2a = a[jp] - 2.0 * a[j] + a[jm]
    d2b = b[jp] - 2.0 * b[j] + b[jm]
    mda = (a[jp] - a[jm]) / 2.0
    mdb = (b[jp] - b[jm]) / 2.0
    g4h = params.gamma / (4.0 * params.h)
    return (a[j] + g4h * (d2a - 2j * mdb), g4h * (4.0 * mda - 2j * d2b),
            b[j] + g4h * (d2b + 2j * mda), g4h * (4.0 * mdb + 2j * d2a))


def interior_envelopes(state: AmplitudeState, params: ModelParams, j: int,
                       periodic: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Envelope polynomials (ascending coefficients) for interior element j."""
    jm, jp = _resolve_neighbours(state.n, j, periodic)
    p0, p1, m0, m1 = _interior_coefficients(state, params, jm, j, jp)
    return (np.array([p0, p1, 0.0], dtype=complex),
            np.array([m0, m1, 0.0], dtype=complex))


def boundary_envelopes(state: AmplitudeState, params: ModelParams,
                       forcing: BoundaryForcing) -> tuple[np.ndarray, np.ndarray]:
    """Envelope polynomials for the wall element (j = 0, wall at X = -h/2);
    the forcing's kind fixes the sign alternative s."""
    if state.n < 2:
        raise ValueError("the wall element needs an interior neighbour")
    if forcing.kind is ForcingKind.PERIODIC:
        raise ValueError("the wall element needs wall forcing, got periodic")
    a1, a2 = state.a[0], state.a[1]
    b1, b2 = state.b[0], state.b[1]
    s = forcing.kind.wall_sign
    h = params.h
    g4h = params.gamma / (4.0 * h)
    g2h = params.gamma ** 2 / h
    al = forcing.alpha_at(state.t)
    be = forcing.beta_at(state.t)

    plus = np.array([
        a1 + g4h * (-(2.0 + s * 1j) * a1 + a2 - s * b1 - 1j * b2),
        g4h * 2.0 * (s * 1j * a1 + a2 + s * (1.0 + 2j * s) * b1 - 1j * b2),
        0.0], dtype=complex)
    minus = np.array([
        b1 + g4h * (-s * a1 + 1j * a2 - (2.0 - s * 1j) * b1 + b2),
        g4h * 2.0 * (s * (1.0 - 2j * s) * a1 + 1j * a2 - s * 1j * b1 + b2),
        0.0], dtype=complex)

    # forcing profiles, quadratic term expanded: c*(h^2 - 12 X^2)
    pc = al * ALPHA_PLUS_CONST + be * BETA_PLUS_CONST
    ps = al * ALPHA_PLUS_SLOPE + be * BETA_PLUS_SLOPE
    pq = al * ALPHA_PLUS_CURVE + be * BETA_PLUS_CURVE
    profile = s * g2h * np.array([pc + pq * h ** 2, ps, -12.0 * pq])
    plus += profile
    minus += np.conj(profile)
    return plus, minus


def _envelope_derivative(coeffs: np.ndarray, sector: int) -> np.ndarray:
    """d/dX of exp(i*sector*X) * P(X) as a new envelope: P' + i*sector*P."""
    dcoef = coeffs[1:] * np.arange(1, len(coeffs))
    out = 1j * sector * coeffs.astype(complex).copy()
    out[:len(dcoef)] += dcoef
    return out


def eval_field(plus: np.ndarray, minus: np.ndarray, xs,
               deriv: int = 0) -> np.ndarray:
    """Evaluate the complex field (or its deriv-th x-derivative) at local xs."""
    p, m = np.asarray(plus, dtype=complex), np.asarray(minus, dtype=complex)
    for _ in range(deriv):
        p = _envelope_derivative(p, +1)
        m = _envelope_derivative(m, -1)
    xs = np.asarray(xs, dtype=float)
    return polyval(xs, p) * np.exp(1j * xs) + polyval(xs, m) * np.exp(-1j * xs)


def extract_amplitudes(grid: FieldGrid, params: ModelParams,
                       t: float = 0.0) -> AmplitudeState:
    """Element-average amplitudes of an element-aligned grid.

    Trapezoidal rule over each element's samples including both endpoints;
    samples shared by two elements get half weight on each side.
    """
    n = len(grid.u)
    N, M = params.n_elements, params.m_samples
    expected = N * M if grid.periodic else N * M + 1
    if n != expected:
        raise ValueError(
            f"grid is not element-aligned: {n} samples, expected {expected}")
    if abs(grid.dx * M - params.h) > 1e-9 * params.h:
        raise ValueError("grid spacing does not match h / m_samples")

    # Unwrapped sample index matrix (N, M+1); periodic grids wrap the value
    # lookup only, the phase uses the unwrapped coordinate (equal mod 2*pi).
    idx = np.arange(N)[:, None] * M + np.arange(M + 1)[None, :]
    xs = grid.x0 + grid.dx * idx
    uvals = grid.u[idx % n] if grid.periodic else grid.u[idx]
    w = np.full(M + 1, grid.dx / params.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    em = np.exp(-1j * xs)
    a = (uvals * em) @ w
    b = (uvals * np.conj(em)) @ w
    return AmplitudeState(t, a, b)


def lattice_field(state: AmplitudeState, params: ModelParams,
                  periodic: bool = True) -> FieldGrid:
    """Sample the reconstruction of every element onto an aligned grid.

    Periodic grids use the interior formula with wrap-around neighbours.
    Bounded grids drop the neighbour corrections (bare rolls) since the
    interior formula needs both neighbours; they remain a valid seed field.
    All elements are evaluated at once as an (N, M) array of envelopes.
    """
    N, M = params.n_elements, params.m_samples
    if state.n != N:
        raise ValueError(f"state has {state.n} elements, params expect {N}")
    grid = FieldGrid.zeros(params, periodic=periodic)
    xs_local = -params.h / 2.0 + grid.dx * np.arange(M)
    if periodic:
        j = np.arange(N)
        p0, p1, m0, m1 = _interior_coefficients(state, params, j - 1, j, (j + 1) % N)
        plus = p1[:, None] * xs_local + p0[:, None]
        minus = m1[:, None] * xs_local + m0[:, None]
    else:
        plus, minus = state.a[:, None], state.b[:, None]

    def field(plus, minus, xs):
        return (plus * np.exp(1j * xs) + minus * np.exp(-1j * xs)).real

    u = field(plus, minus, xs_local).ravel()
    if not periodic:
        # closing endpoint belongs to the last element at X = +h/2
        u = np.append(u, field(plus[-1], minus[-1], np.array([params.h / 2.0])))
    grid.u = u
    return grid


def ibc_residual(state: AmplitudeState, params: ModelParams, j: int,
                 gamma: float, periodic: bool = False) -> tuple[complex, complex]:
    """Mismatch of the inter-element matching conditions around element j.

    The conditions couple the combinations u + u' at the right edge and
    u - u' at the left edge of the element to the same combinations of the
    neighbouring reconstructions, mixed by gamma (gamma = 0 demands
    h-periodicity of each isolated element, gamma = 1 full continuity).
    Derivatives are taken analytically from the envelopes.  Returns
    (right residual, left residual).
    """
    p = replace(params, gamma=gamma)
    env = {}
    for m in (j - 1, j, j + 1):
        mm = m % state.n if periodic else m
        env[m] = interior_envelopes(state, p, mm, periodic)
    half = params.h / 2.0

    def w_plus(m, x):   # u + u'
        pl, mi = env[m]
        x = np.array([x])
        return complex(eval_field(pl, mi, x)[0] + eval_field(pl, mi, x, deriv=1)[0])

    def w_minus(m, x):  # u - u'
        pl, mi = env[m]
        x = np.array([x])
        return complex(eval_field(pl, mi, x)[0] - eval_field(pl, mi, x, deriv=1)[0])

    r_right = (w_plus(j, half) - (1.0 - gamma) * w_plus(j, -half)
               - gamma * w_plus(j + 1, -half))
    r_left = (w_minus(j, -half) - (1.0 - gamma) * w_minus(j, half)
              - gamma * w_minus(j - 1, half))
    return r_right, r_left


def boundary_profiles(params: ModelParams, sign: SignChoice,
                      xs) -> dict[str, np.ndarray]:
    """Wall-element forcing profiles over local positions xs.

    Emits the field obtained with all amplitudes zero and unit alpha (resp.
    unit beta), plus the analytic second derivative of each curve.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(np.abs(xs) > params.h / 2 + 1e-9):
        raise ValueError("sample positions fall outside the element")
    zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
    out = {"x": xs}
    for name, (al, be) in (("alpha", (1.0, 0.0)), ("beta", (0.0, 1.0))):
        plus, minus = boundary_envelopes(zero, params, sign.wall(al, be, p=params.p))
        out[f"{name}_profile"] = eval_field(plus, minus, xs).real
        out[f"{name}_profile_xx"] = eval_field(plus, minus, xs, deriv=2).real
    return out
