"""Maps between field space and amplitude space.

Amplitudes are defined as element averages against the roll modes,

    a_j = (1/h) int u(x) exp(-ix) dx,    b_j = (1/h) int u(x) exp(+ix) dx,

integrated over element j.  A sampled field is real, so extraction lands
in the real sector and stores b as conj(a) rather than integrating it a
second time.  The in-element field is reconstructed as

    u_j(x) = E+(X) exp(+ix) + E-(X) exp(-ix),

where X is the coordinate relative to the element centre and the envelopes
E+/E- are low-degree polynomials in X.  In the interior the envelopes carry
first-order neighbour corrections built from the integer-offset composites
d2 v_j = v_{j+1} - 2 v_j + v_{j-1} and md v_j = (v_{j+1} - v_{j-1})/2:

    E+ = a_j + e [ (d2 a_j - 2i md b_j) + (4 md a_j - 2i d2 b_j) X ]
    E- = b_j + e [ (d2 b_j + 2i md a_j) + (4 md b_j + 2i d2 a_j) X ]

with e = g/4h the envelope coefficient of the lattice model's one table,
`amplitude_model._Coefficients`, which also gives the wall drive g^2/h.

The wall element takes the same formula, with the missing neighbour
replaced by the wall ghosts a_0 = -s b_1, b_0 = -s a_1 of the lattice
kernel (s = +1 for even wall data, -1 for odd), plus the wall signals alpha
and beta through fixed quadratic profiles whose coefficients are tabulated
below.  `eval_field` evaluates every envelope table.  All formulas assume
the canonical frame (element centres at multiples of 2*pi) so that
exp(+-ix) = exp(+-iX) inside every element.

Extraction reads fields in the same frame.  Element j starts j h =
2 pi p j after element 0, so exp(-ix) takes the same values at the
samples of every element, and `extract_amplitudes` multiplies each
element's samples by one table formed from the local offsets x0 + k dx.
The rounding of that phase does not grow with the distance from x = 0,
as a phase formed from the global coordinate's would.
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
)
from .amplitude_model import SignChoice, _Coefficients

# Wall-element forcing-profile coefficients for the exp(+ix) sector.  Each
# signal contributes  s*d * [CONST + SLOPE*X + CURVE*(h^2 - 12 X^2)], with
# d the lattice model's wall drive (`_Coefficients`) and s = +1/-1 for
# even/odd wall data.  The exp(-ix) sector
# carries the complex conjugates (exactly, since the signals are real).
ALPHA_PLUS_CONST = (7 + 5j) / 16
ALPHA_PLUS_SLOPE = -(2 + 3j) / 4
ALPHA_PLUS_CURVE = (1 - 1j) / 96
BETA_PLUS_CONST = (3 + 1j) / 16
BETA_PLUS_SLOPE = -1j / 4
BETA_PLUS_CURVE = (1 - 1j) / 96


def _resolve_neighbours(n: int, j: int, periodic: bool) -> tuple[int, int]:
    if not 0 <= j < n:
        raise IndexError(f"index {j} outside lattice of size {n}")
    if periodic:
        return (j - 1) % n, (j + 1) % n
    if j == 0 or j == n - 1:
        raise IndexError(
            f"index {j} has no neighbour on a non-periodic lattice of size {n}")
    return j - 1, j + 1


def _interior_coefficients(a: np.ndarray, b: np.ndarray, params: ModelParams,
                           jm, j, jp) -> tuple[np.ndarray, np.ndarray]:
    """E+ and E- tables of element(s) j with neighbours jm and jp: ascending
    coefficients of the degree-1 envelopes on axis 0, shape (2,) for integer
    indices or (2, n) for index arrays of n elements."""
    d2a = a[jp] - 2.0 * a[j] + a[jm]
    d2b = b[jp] - 2.0 * b[j] + b[jm]
    mda = (a[jp] - a[jm]) / 2.0
    mdb = (b[jp] - b[jm]) / 2.0
    g4h = _Coefficients(params).envelope
    return (np.array([a[j] + g4h * (d2a - 2j * mdb), g4h * (4.0 * mda - 2j * d2b)]),
            np.array([b[j] + g4h * (d2b + 2j * mda), g4h * (4.0 * mdb + 2j * d2a)]))


def interior_envelopes(state: AmplitudeState, params: ModelParams, j: int,
                       periodic: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Envelope polynomials (ascending coefficients, up to X^2 like the wall
    element's) for interior element j."""
    jm, jp = _resolve_neighbours(state.n, j, periodic)
    plus, minus = _interior_coefficients(state.a, state.b, params, jm, j, jp)
    return np.append(plus, 0.0), np.append(minus, 0.0)


def boundary_envelopes(state: AmplitudeState, params: ModelParams,
                       forcing: BoundaryForcing) -> tuple[np.ndarray, np.ndarray]:
    """Envelope polynomials for the wall element (j = 0, wall at X = -h/2).

    The amplitude part is the interior formula on the lattice padded with
    the wall ghosts a_0 = -s b_1, b_0 = -s a_1 of the lattice kernel, where
    the forcing's kind fixes the sign alternative s; the forcing profiles,
    times s and the wall drive of `_Coefficients`, are added on top.
    """
    if state.n < 2:
        raise ValueError("the wall element needs an interior neighbour")
    if forcing.kind is ForcingKind.PERIODIC:
        raise ValueError("the wall element needs wall forcing, got periodic")
    s = forcing.kind.wall_sign
    (a1, a2), (b1, b2) = state.a[:2], state.b[:2]
    plus, minus = _interior_coefficients(np.array([-s * b1, a1, a2]),
                                         np.array([-s * a1, b1, b2]), params, 0, 1, 2)
    h = params.h
    (al, be), _ = forcing.signals(state.t)
    # forcing profiles, quadratic term expanded: c*(h^2 - 12 X^2)
    pc = al * ALPHA_PLUS_CONST + be * BETA_PLUS_CONST
    ps = al * ALPHA_PLUS_SLOPE + be * BETA_PLUS_SLOPE
    pq = al * ALPHA_PLUS_CURVE + be * BETA_PLUS_CURVE
    profile = s * _Coefficients(params).drive * np.array([pc + pq * h ** 2, ps, -12.0 * pq])
    return np.append(plus, 0.0) + profile, np.append(minus, 0.0) + np.conj(profile)


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


def extract_amplitudes(grid: FieldGrid, params: ModelParams) -> AmplitudeState:
    """Element-average amplitudes of an element-aligned grid.

    Trapezoidal rule over each element's samples including both endpoints;
    samples shared by two elements get half weight on each side.  Every
    element multiplies its M + 1 samples by one table, w_k exp(-i(x0 +
    k dx)), k = 0..M: element j starts j h = 2 pi p j after element 0, so
    exp(-ix) takes the same values in every element, as the canonical
    frame assumes.  Element j's first M samples are row j of the field
    reshaped to (N, M), and its closing sample, the first of element
    j + 1, takes the table's last entry; a periodic grid appends its first
    sample as the wrap.  u and the weights are real, so b is conj(a)
    exactly and is not integrated.
    """
    n = len(grid.u)
    N, M = params.n_elements, params.m_samples
    expected = N * M if grid.periodic else N * M + 1
    if n != expected:
        raise ValueError(
            f"grid is not element-aligned: {n} samples, expected {expected}")
    if abs(grid.dx * M - params.h) > 1e-9 * params.h:
        raise ValueError("grid spacing does not match h / m_samples")
    u = np.append(grid.u, grid.u[0]) if grid.periodic else grid.u
    w = np.full(M + 1, grid.dx / params.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    table = w * np.exp(-1j * (grid.x0 + grid.dx * np.arange(M + 1)))
    a = u[:-1].reshape(N, M) @ table[:-1] + u[M::M] * table[-1]
    return AmplitudeState(0.0, a, np.conj(a))


def lattice_field(state: AmplitudeState, params: ModelParams,
                  periodic: bool = True) -> FieldGrid:
    """Sample the reconstruction of every element onto an aligned grid.

    Periodic grids use the interior formula with wrap-around neighbours.
    Bounded grids drop the neighbour corrections (bare rolls: the constant
    tables a_j and b_j), which remain a valid seed field.  All elements are
    evaluated at once, as tables with one column per element, at the M
    local sample positions.
    """
    N, M = params.n_elements, params.m_samples
    if state.n != N:
        raise ValueError(f"state has {state.n} elements, params expect {N}")
    grid = FieldGrid.zeros(params, periodic=periodic)
    xs_local = -params.h / 2.0 + grid.dx * np.arange(M)
    if periodic:
        j = np.arange(N)
        plus, minus = _interior_coefficients(state.a, state.b, params, j - 1, j, (j + 1) % N)
    else:
        plus, minus = state.a[None], state.b[None]
    u = eval_field(plus, minus, xs_local).real.ravel()
    if not periodic:
        # closing endpoint belongs to the last element at X = +h/2
        u = np.append(u, eval_field(plus[:, -1], minus[:, -1], params.h / 2.0).real)
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
    env = {m: interior_envelopes(state, p, m % state.n if periodic else m, periodic)
           for m in (j - 1, j, j + 1)}
    half = params.h / 2.0

    def w(m, x, sign):   # u + sign u'
        return complex(eval_field(*env[m], x) + sign * eval_field(*env[m], x, deriv=1))

    r_right = (w(j, half, 1) - (1.0 - gamma) * w(j, -half, 1)
               - gamma * w(j + 1, -half, 1))
    r_left = (w(j, -half, -1) - (1.0 - gamma) * w(j, half, -1)
              - gamma * w(j - 1, half, -1))
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
