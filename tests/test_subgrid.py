import itertools

import numpy as np
import pytest

from shlattice import (
    AmplitudeState,
    BoundaryForcing,
    FieldGrid,
    SignChoice,
    boundary_profiles,
    conjugate_state,
    extract_amplitudes,
    ibc_residual,
    make_params,
    reconstruct_boundary,
    reconstruct_interior,
)
from shlattice.subgrid import (
    ALPHA_PLUS_CONST,
    ALPHA_PLUS_CURVE,
    ALPHA_PLUS_SLOPE,
    BETA_PLUS_CONST,
    BETA_PLUS_CURVE,
    BETA_PLUS_SLOPE,
    boundary_envelopes,
    eval_field,
    interior_envelopes,
    lattice_field,
)


def params_for(r=0.0, gamma=1.0, p=1, n=4, m=32):
    return make_params(r=r, gamma=gamma, p=p, n_elements=n, m_samples=m)


def random_state(n, scale=0.1, seed=0, conjugate=False):
    rng = np.random.default_rng(seed)
    a = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if conjugate:
        return conjugate_state(0.0, a)
    b = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return AmplitudeState(0.0, a, b)


class TestCoefficientTable:
    def test_transcription(self):
        # independent re-reading of the wall-profile coefficients
        assert ALPHA_PLUS_CONST == (7 + 5j) / 16
        assert ALPHA_PLUS_SLOPE == -(2 + 3j) / 4
        assert ALPHA_PLUS_CURVE == (1 - 1j) / 96
        assert BETA_PLUS_CONST == (3 + 1j) / 16
        assert BETA_PLUS_SLOPE == -1j / 4
        assert BETA_PLUS_CURVE == (1 - 1j) / 96

    def test_minus_sector_is_conjugate(self):
        # with zero amplitudes only the forcing profiles remain; the
        # exp(-ix) sector must carry exactly their conjugates
        zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        signals = [(1.0, 0.0), (0.0, 1.0), (0.3, -0.7), (-2.5, 1e-3), (1e4, 3.0)]
        for sign, make in ((SignChoice.UPPER, BoundaryForcing.even_given),
                           (SignChoice.LOWER, BoundaryForcing.odd_given)):
            for (alpha, beta), p in itertools.product(signals, (1, 2)):
                params = params_for(gamma=0.8, p=p, n=2)
                plus, minus = boundary_envelopes(zero, params, make(alpha, beta, p=p), sign)
                assert np.any(plus != 0)
                assert np.array_equal(minus, np.conj(plus))


class TestExtraction:
    def test_pure_cosine(self):
        params = params_for(n=2, m=64)
        grid = FieldGrid.sample(lambda x: 2 * np.cos(x), params)
        st = extract_amplitudes(grid, params)
        assert np.max(np.abs(st.a - 1.0)) < 1e-12
        assert np.max(np.abs(st.b - 1.0)) < 1e-12

    def test_pure_sine(self):
        params = params_for(n=2, m=64)
        grid = FieldGrid.sample(np.sin, params)
        st = extract_amplitudes(grid, params)
        assert np.max(np.abs(st.a - (-0.5j))) < 1e-12
        assert np.max(np.abs(st.b - 0.5j)) < 1e-12

    def test_orthogonal_harmonic(self):
        params = params_for(n=2, m=64)
        grid = FieldGrid.sample(lambda x: np.cos(2 * x), params)
        st = extract_amplitudes(grid, params)
        assert np.max(np.abs(st.a)) < 1e-12
        assert np.max(np.abs(st.b)) < 1e-12

    def test_linearity(self):
        params = params_for(n=3, m=32)
        rng = np.random.default_rng(2)
        u1 = rng.standard_normal(3 * 32)
        u2 = rng.standard_normal(3 * 32)
        g = lambda u: FieldGrid(-params.h / 2, params.h / 32, u, True)
        sa = extract_amplitudes(g(2.0 * u1 - 0.7 * u2), params)
        s1 = extract_amplitudes(g(u1), params)
        s2 = extract_amplitudes(g(u2), params)
        assert np.max(np.abs(sa.a - (2.0 * s1.a - 0.7 * s2.a))) < 1e-14

    def test_misaligned_grid_rejected(self):
        params = params_for(n=4, m=32)
        grid = FieldGrid(-params.h / 2, params.h / 32, np.zeros(100), True)
        with pytest.raises(ValueError):
            extract_amplitudes(grid, params)

    def test_quadrature_convergence(self):
        # smooth periodic field with non-resonant (half-integer) content:
        # error drops at least 4x per sample doubling
        def field(x):
            return np.exp(0.4 * np.sin(x / 2)) - 1.0   # period 4 pi = domain

        errs = []
        for m in (16, 32, 64):
            params = params_for(n=2, m=m)
            ref = params_for(n=2, m=1024)
            st = extract_amplitudes(FieldGrid.sample(field, params), params)
            st_ref = extract_amplitudes(FieldGrid.sample(field, ref), ref)
            errs.append(np.max(np.abs(st.a - st_ref.a)))
        assert errs[0] / errs[1] >= 4.0
        assert errs[1] / errs[2] >= 4.0


class TestInteriorReconstruction:
    def test_gamma_zero_is_bare_rolls(self):
        params = params_for(gamma=0.0, n=4)
        st = random_state(4, seed=7, conjugate=True)
        xs = np.linspace(-params.h / 2, params.h / 2, 9)
        got = reconstruct_interior(st, params, 1, xs)
        expect = (st.a[1] * np.exp(1j * xs) + st.b[1] * np.exp(-1j * xs)).real
        assert np.max(np.abs(got - expect)) < 1e-14

    def test_uniform_lattice_equals_gamma_zero(self):
        st = conjugate_state(0.0, np.full(4, 0.2 - 0.1j))
        xs = np.linspace(-np.pi, np.pi, 7)
        full = reconstruct_interior(st, params_for(gamma=1.0), 1, xs)
        bare = reconstruct_interior(st, params_for(gamma=0.0), 1, xs)
        assert np.max(np.abs(full - bare)) < 1e-15

    def test_neighbour_correction_envelopes(self):
        # a = [0,0,1], b = 0 at the middle: plus envelope (1/(8 pi))(1 + 2X),
        # minus envelope (1/(8 pi))(i + 2iX)
        params = params_for(n=3)
        st = AmplitudeState(0.0, np.array([0, 0, 1], complex), np.zeros(3, complex))
        plus, minus = interior_envelopes(st, params, 1)
        c = 1 / (8 * np.pi)
        assert np.allclose(plus, [c, 2 * c, 0], atol=1e-15)
        assert np.allclose(minus, [1j * c, 2j * c, 0], atol=1e-15)

    def test_conjugate_sector_is_real(self):
        params = params_for(n=5)
        st = random_state(5, seed=10, conjugate=True)
        plus, minus = interior_envelopes(st, params, 2)
        values = eval_field(plus, minus, np.linspace(-np.pi, np.pi, 11))
        assert np.max(np.abs(values.imag)) < 1e-12

    def test_out_of_element_rejected(self):
        params = params_for(n=3)
        st = random_state(3)
        with pytest.raises(ValueError):
            reconstruct_interior(st, params, 1, [0.6 * params.h])

    def test_roundtrip_gamma_zero(self):
        # element averages of the reconstruction recover the amplitudes
        params = params_for(gamma=0.0, n=6, m=64)
        st = random_state(6, seed=3)
        h, m = params.h, params.m_samples
        xs = np.linspace(-h / 2, h / 2, m + 1)
        w = np.full(m + 1, (h / m) / h)
        w[0] *= 0.5
        w[-1] *= 0.5
        for j in range(6):
            plus, minus = interior_envelopes(st, params, j, periodic=True)
            u = eval_field(plus, minus, xs)
            aj = np.sum(u * np.exp(-1j * xs) * w)
            bj = np.sum(u * np.exp(+1j * xs) * w)
            assert abs(aj - st.a[j]) < 1e-10
            assert abs(bj - st.b[j]) < 1e-10

    def test_kernel_property(self):
        # the corrections stay inside ker(1 + d_xx)^2: verify numerically
        # with 8th-order differencing of the reconstruction
        params = params_for(n=4)
        st = random_state(4, seed=3, conjugate=True)
        plus, minus = interior_envelopes(st, params, 1, periodic=True)
        coef = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72,
                         8 / 5, -1 / 5, 8 / 315, -1 / 560])
        dd = 0.02

        def u(x):
            return eval_field(plus, minus, np.atleast_1d(x))[0]

        def d2(f, x):
            return sum(coef[k + 4] * f(x + k * dd) for k in range(-4, 5)) / dd ** 2

        xs = np.linspace(-params.h / 4, params.h / 4, 5)
        scale = max(abs(u(x)) for x in xs)
        for x0 in xs:
            w = lambda x: u(x) + d2(u, x)
            residual = abs(w(x0) + d2(w, x0))
            assert residual <= 1e-6 * scale


def per_element_field(state, params, periodic):
    """lattice_field one element at a time, through interior_envelopes and
    eval_field (bare rolls on bounded grids, plus the closing sample)."""
    dx = FieldGrid.zeros(params, periodic=periodic).dx
    xs = -params.h / 2.0 + dx * np.arange(params.m_samples)
    chunks = []
    for j in range(params.n_elements):
        if periodic:
            plus, minus = interior_envelopes(state, params, j, periodic=True)
        else:
            plus = np.array([state.a[j], 0.0, 0.0], dtype=complex)
            minus = np.array([state.b[j], 0.0, 0.0], dtype=complex)
        chunks.append(eval_field(plus, minus, xs).real)
    if not periodic:
        chunks.append(eval_field(plus, minus, np.array([params.h / 2.0])).real)
    return np.concatenate(chunks)


class TestLatticeField:
    @pytest.mark.parametrize("n, m", [(2, 32), (3, 16), (5, 16), (64, 64)])
    @pytest.mark.parametrize("gamma", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("conjugate", [True, False])
    def test_matches_per_element_reconstruction(self, n, m, gamma, conjugate):
        params = params_for(gamma=gamma, n=n, m=m)
        st = random_state(n, scale=0.3, seed=n + m, conjugate=conjugate)
        periodic = lattice_field(st, params, periodic=True).u
        expected = per_element_field(st, params, periodic=True)
        assert periodic.shape == expected.shape
        assert np.max(np.abs(periodic - expected)) <= 1e-15 * np.max(np.abs(expected))
        bounded = lattice_field(st, params, periodic=False).u
        assert np.array_equal(bounded, per_element_field(st, params, periodic=False))

    def test_state_size_mismatch_rejected(self):
        params = params_for(n=4)
        with pytest.raises(ValueError, match="elements"):
            lattice_field(random_state(3), params)


class TestBoundaryReconstruction:
    def test_gamma_zero_is_bare_rolls(self):
        params = params_for(gamma=0.0, n=2)
        st = random_state(2, seed=5, conjugate=True)
        forcing = BoundaryForcing.even_given(0.3, 0.1, p=1)
        xs = np.linspace(-np.pi, np.pi, 9)
        got = reconstruct_boundary(st, params, forcing, SignChoice.UPPER, xs)
        expect = (st.a[0] * np.exp(1j * xs) + st.b[0] * np.exp(-1j * xs)).real
        assert np.max(np.abs(got - expect)) < 1e-14

    def test_quadratic_profile_structure_at_edges(self):
        # (h^2 - 12 x^2) evaluates to -2 h^2 at both element edges
        params = params_for(n=2)
        h = params.h
        assert h ** 2 - 12 * (h / 2) ** 2 == pytest.approx(-2 * h ** 2, rel=1e-15)
        zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        forcing = BoundaryForcing.even_given(1.0, 0.0, p=1)
        plus, _ = boundary_envelopes(zero, params, forcing, SignChoice.UPPER)
        for x in (-h / 2, h / 2):
            got = plus[0] + plus[1] * x + plus[2] * x * x
            expect = (1 / h) * (ALPHA_PLUS_CONST + ALPHA_PLUS_SLOPE * x
                                + ALPHA_PLUS_CURVE * (-2 * h ** 2))
            assert got == pytest.approx(expect, rel=1e-13)

    def test_conjugate_sector_real_with_forcing(self):
        params = params_for(n=3)
        st = random_state(3, seed=1, conjugate=True)
        for sign, make in ((SignChoice.UPPER, BoundaryForcing.even_given),
                           (SignChoice.LOWER, BoundaryForcing.odd_given)):
            forcing = make(0.2, -0.4, p=1)
            plus, minus = boundary_envelopes(st, params, forcing, sign)
            xs = np.linspace(-np.pi, np.pi, 17)
            vals = eval_field(plus, minus, xs)
            assert np.max(np.abs(vals.imag)) < 1e-12

    def test_sign_mismatch_rejected(self):
        params = params_for(n=2)
        st = random_state(2)
        forcing = BoundaryForcing.even_given(0.1, 0.0, p=1)
        with pytest.raises(ValueError):
            reconstruct_boundary(st, params, forcing, SignChoice.LOWER, [0.0])


class TestIbcResidual:
    def test_gamma_zero_residual_vanishes(self):
        params = params_for(n=5)
        st = random_state(5, seed=2)
        rr, rl = ibc_residual(st, params, 2, 0.0)
        assert abs(rr) < 1e-14 and abs(rl) < 1e-14

    def test_uniform_lattice_residual_vanishes(self):
        params = params_for(n=5)
        st = conjugate_state(0.0, np.full(5, 0.3 + 0.1j))
        rr, rl = ibc_residual(st, params, 2, 0.7)
        assert abs(rr) < 1e-14 and abs(rl) < 1e-14

    def test_residual_is_quadratic_in_gamma(self):
        # halving gamma quarters the residual on small-amplitude states
        params = params_for(n=8)
        st = random_state(8, scale=1e-3, seed=4)
        norms = {}
        for g in (0.1, 0.05):
            acc = 0.0
            for j in range(8):
                rr, rl = ibc_residual(st, params, j, g, periodic=True)
                acc += abs(rr) ** 2 + abs(rl) ** 2
            norms[g] = np.sqrt(acc)
        assert norms[0.1] / norms[0.05] == pytest.approx(4.0, abs=0.5)

    def test_boundary_elements_rejected(self):
        params = params_for(n=4)
        st = random_state(4)
        with pytest.raises(IndexError):
            ibc_residual(st, params, 0, 0.5)


class TestBoundaryProfiles:
    def test_zero_signals_zero_profiles(self):
        params = params_for(n=2)
        zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        xs = np.linspace(-np.pi, np.pi, 5)
        got = reconstruct_boundary(zero, params, forcing, SignChoice.UPPER, xs)
        assert np.all(got == 0)

    def test_linear_in_alpha(self):
        params = params_for(n=2)
        zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        xs = np.linspace(-np.pi, np.pi, 33)
        one = reconstruct_boundary(zero, params,
                                   BoundaryForcing.even_given(1.0, 0.0, p=1),
                                   SignChoice.UPPER, xs)
        two = reconstruct_boundary(zero, params,
                                   BoundaryForcing.even_given(2.0, 0.0, p=1),
                                   SignChoice.UPPER, xs)
        assert np.max(np.abs(two - 2 * one)) < 1e-13

    def test_boundary_layer_decay(self):
        # the wall-layer envelope |E+| + |E-| decays from the wall into the
        # element interior on a scale of about one length unit
        params = params_for(n=2)
        h = params.h
        zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        for name, (al, be) in (("alpha", (1.0, 0.0)), ("beta", (0.0, 1.0))):
            forcing = BoundaryForcing.even_given(al, be, p=1)
            plus, minus = boundary_envelopes(zero, params, forcing, SignChoice.UPPER)
            env = lambda x: (abs(np.polyval(plus[::-1], x))
                             + abs(np.polyval(minus[::-1], x)))
            wall = env(-h / 2)
            centre = env(0.0)
            assert wall > 2.0 * centre, name
            # monotone decay over the first length unit from the wall
            # (the layer lives on a scale of about one)
            line = [env(-h / 2 + s) for s in np.linspace(0.0, 1.0, 5)]
            assert all(x > y for x, y in zip(line, line[1:])), name

    def test_profile_table_columns(self):
        params = params_for(n=2)
        xs = np.linspace(-np.pi, np.pi, 21)
        table = boundary_profiles(params, SignChoice.UPPER, xs)
        for key in ("x", "alpha_profile", "beta_profile",
                    "alpha_profile_xx", "beta_profile_xx"):
            assert key in table and len(table[key]) == 21
        # analytic second derivative agrees with differencing the profile
        fine = np.linspace(-1.0, 1.0, 801)
        t2 = boundary_profiles(params, SignChoice.UPPER, fine)
        num = np.gradient(np.gradient(t2["alpha_profile"], fine), fine)
        inner = slice(50, -50)
        assert np.max(np.abs(num[inner] - t2["alpha_profile_xx"][inner])) < 1e-2
