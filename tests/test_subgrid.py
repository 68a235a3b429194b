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
        for make in (BoundaryForcing.even_given, BoundaryForcing.odd_given):
            for (alpha, beta), p in itertools.product(signals, (1, 2)):
                params = params_for(gamma=0.8, p=p, n=2)
                plus, minus = boundary_envelopes(zero, params, make(alpha, beta, p=p))
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

    @pytest.mark.parametrize("periodic", [True, False])
    def test_wide_round_trip_is_the_sum_of_small_impulse_responses(self, periodic):
        # lattice_field -> extract_amplitudes is real-linear and couples an
        # element to its near neighbours only, so the responses of an
        # 8-element lattice to real and imaginary unit impulses predict it
        # at any size.  At N = 4096 that holds to rounding only when every
        # element is read against one local phase table: a phase formed
        # from the global coordinate was off by 1.1e-12 of sqrt(r/3).
        r, n = 0.05, 4096
        small, wide = params_for(r=r, n=8), params_for(r=r, n=n)

        def round_trip(a, params):
            grid = lattice_field(conjugate_state(0.0, a), params, periodic=periodic)
            return extract_amplitudes(grid, params).a

        kernels = {unit: np.array([round_trip(unit * np.eye(8)[j], small) for j in range(8)]).T
                   for unit in (1.0, 1j)}
        a = np.sqrt(r / 3.0) * np.exp(1j * np.random.default_rng(5).uniform(0, 2 * np.pi, n))
        cols = np.arange(n)
        # the column of the small lattice that stands for each wide one
        stand = np.full(n, 4)
        if not periodic:
            stand = np.where(cols < 3, cols, np.where(cols >= n - 3, cols - n + 8, stand))
        expect = np.zeros(n, complex)
        for d in range(-3, 4):
            rows, srows = cols + d, stand + d
            if periodic:
                rows, srows, ok = rows % n, srows % 8, np.ones(n, dtype=bool)
            else:
                ok = (srows >= 0) & (srows < 8) & (rows >= 0) & (rows < n)
            s = stand[ok]
            np.add.at(expect, rows[ok], a.real[ok] * kernels[1.0][srows[ok], s]
                      + a.imag[ok] * kernels[1j][srows[ok], s])
        assert np.max(np.abs(round_trip(a, wide) - expect)) <= 1e-14 * np.sqrt(r / 3.0)


def reconstruct(envelopes, xs):
    """Real reconstructed field of one element at local positions xs."""
    return eval_field(*envelopes, xs).real


class TestInteriorReconstruction:
    def test_gamma_zero_is_bare_rolls(self):
        params = params_for(gamma=0.0, n=4)
        st = random_state(4, seed=7, conjugate=True)
        xs = np.linspace(-params.h / 2, params.h / 2, 9)
        got = reconstruct(interior_envelopes(st, params, 1), xs)
        expect = (st.a[1] * np.exp(1j * xs) + st.b[1] * np.exp(-1j * xs)).real
        assert np.max(np.abs(got - expect)) < 1e-14

    def test_uniform_lattice_equals_gamma_zero(self):
        st = conjugate_state(0.0, np.full(4, 0.2 - 0.1j))
        xs = np.linspace(-np.pi, np.pi, 7)
        full = reconstruct(interior_envelopes(st, params_for(gamma=1.0), 1), xs)
        bare = reconstruct(interior_envelopes(st, params_for(gamma=0.0), 1), xs)
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
        got = reconstruct(boundary_envelopes(st, params, forcing), xs)
        expect = (st.a[0] * np.exp(1j * xs) + st.b[0] * np.exp(-1j * xs)).real
        assert np.max(np.abs(got - expect)) < 1e-14

    def test_quadratic_profile_structure_at_edges(self):
        # (h^2 - 12 x^2) evaluates to -2 h^2 at both element edges
        params = params_for(n=2)
        h = params.h
        assert h ** 2 - 12 * (h / 2) ** 2 == pytest.approx(-2 * h ** 2, rel=1e-15)
        zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        forcing = BoundaryForcing.even_given(1.0, 0.0, p=1)
        plus, _ = boundary_envelopes(zero, params, forcing)
        for x in (-h / 2, h / 2):
            got = plus[0] + plus[1] * x + plus[2] * x * x
            expect = (1 / h) * (ALPHA_PLUS_CONST + ALPHA_PLUS_SLOPE * x
                                + ALPHA_PLUS_CURVE * (-2 * h ** 2))
            assert got == pytest.approx(expect, rel=1e-13)

    def test_conjugate_sector_real_with_forcing(self):
        params = params_for(n=3)
        st = random_state(3, seed=1, conjugate=True)
        for make in (BoundaryForcing.even_given, BoundaryForcing.odd_given):
            plus, minus = boundary_envelopes(st, params, make(0.2, -0.4, p=1))
            xs = np.linspace(-np.pi, np.pi, 17)
            vals = eval_field(plus, minus, xs)
            assert np.max(np.abs(vals.imag)) < 1e-12

    def test_periodic_forcing_rejected(self):
        # the forcing's kind fixes the wall's sign; periodic forcing has none
        params = params_for(n=2)
        with pytest.raises(ValueError, match="wall forcing"):
            boundary_envelopes(random_state(2), params, BoundaryForcing.periodic())
        one = AmplitudeState(0.0, np.zeros(1, complex), np.zeros(1, complex))
        with pytest.raises(ValueError, match="interior neighbour"):
            boundary_envelopes(one, params, BoundaryForcing.even_given(p=1))

    def test_sign_follows_forcing_kind(self):
        # the constant of E+ is a_1 + (g/4h)(-(2 + s i) a_1 + a_2 - s b_1 - i b_2)
        # plus s times the forcing profile, with s = +1 for even data and -1
        # for odd data: half their sum drops every term in s, half their
        # difference keeps only those
        params = params_for(gamma=0.7, n=2)
        st = random_state(2, seed=6)
        even = boundary_envelopes(st, params, BoundaryForcing.even_given(0.3, 0.1, p=1))
        odd = boundary_envelopes(st, params, BoundaryForcing.odd_given(0.3, 0.1, p=1))
        g4h = params.gamma / (4.0 * params.h)
        a1, a2, b1, b2 = st.a[0], st.a[1], st.b[0], st.b[1]
        assert (even[0][0] + odd[0][0]) / 2 == pytest.approx(
            a1 + g4h * (-2.0 * a1 + a2 - 1j * b2), rel=1e-13)
        zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        profile = boundary_envelopes(zero, params, BoundaryForcing.even_given(0.3, 0.1, p=1))
        assert (even[0][0] - odd[0][0]) / 2 == pytest.approx(
            g4h * (-1j * a1 - b1) + profile[0][0], rel=1e-13)


def hand_expanded_wall(state, params, s):
    """Amplitude envelopes of the wall element written out term by term:
    the interior formula with the ghosts a_0 = -s b_1, b_0 = -s a_1
    substituted by hand (zero wall signals)."""
    a1, a2 = state.a[0], state.a[1]
    b1, b2 = state.b[0], state.b[1]
    g4h = params.gamma / (4.0 * params.h)
    plus = [a1 + g4h * (-(2.0 + s * 1j) * a1 + a2 - s * b1 - 1j * b2),
            g4h * 2.0 * (s * 1j * a1 + a2 + s * (1.0 + 2j * s) * b1 - 1j * b2), 0.0]
    minus = [b1 + g4h * (-s * a1 + 1j * a2 - (2.0 - s * 1j) * b1 + b2),
             g4h * 2.0 * (s * (1.0 - 2j * s) * a1 + 1j * a2 - s * 1j * b1 + b2), 0.0]
    return np.array(plus, dtype=complex), np.array(minus, dtype=complex)


WALL_CASES = list(itertools.product((0.0, 0.3, 0.5, 1.0), (1, 2, 3), (True, False), range(3)))


def assert_envelopes_close(got, expect):
    """Both envelopes within 1e-15 of the largest expected coefficient."""
    scale = max(np.max(np.abs(e)) for e in expect)
    for g, e in zip(got, expect):
        assert np.max(np.abs(g - e)) <= 1e-15 * scale


@pytest.mark.parametrize("make", [BoundaryForcing.even_given, BoundaryForcing.odd_given])
class TestWallEnvelopeIsInteriorFormula:
    def test_left_wall_matches_hand_expansion(self, make):
        for gamma, p, conjugate, seed in WALL_CASES:
            params = params_for(gamma=gamma, p=p, n=3)
            st = random_state(3, seed=seed, conjugate=conjugate)
            forcing = make(0.0, 0.0, p=p)
            expect = hand_expanded_wall(st, params, forcing.kind.wall_sign)
            assert_envelopes_close(boundary_envelopes(st, params, forcing), expect)

    def test_right_wall_is_mirrored_left_wall(self, make):
        # x -> -x reverses the lattice, swaps a and b, and maps an envelope
        # P(X) to P(-X); the right wall element is then the interior formula
        # with the right ghosts a_{N+1} = -s b_N, b_{N+1} = -s a_N
        flip = np.array([1.0, -1.0, 1.0])
        for gamma, p, conjugate, seed in WALL_CASES:
            params = params_for(gamma=gamma, p=p, n=4)
            st = random_state(4, seed=seed, conjugate=conjugate)
            forcing = make(0.0, 0.0, p=p)
            s = forcing.kind.wall_sign
            padded = AmplitudeState(0.0, np.append(st.a, -s * st.b[-1]),
                                    np.append(st.b, -s * st.a[-1]))
            expect = interior_envelopes(padded, params, 3)
            mirrored = AmplitudeState(0.0, st.b[::-1], st.a[::-1])
            left_plus, left_minus = boundary_envelopes(mirrored, params, forcing)
            assert_envelopes_close((flip * left_minus, flip * left_plus), expect)


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

    @pytest.mark.parametrize("gamma", [1.5, -0.1, float("nan")])
    def test_coupling_outside_its_range_rejected(self, gamma):
        # the residual's parameters are a checked replace of params
        with pytest.raises(ValueError, match="gamma must lie in"):
            ibc_residual(random_state(5), params_for(n=5), 2, gamma)


class TestBoundaryProfiles:
    def test_zero_signals_zero_profiles(self):
        params = params_for(n=2)
        zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        xs = np.linspace(-np.pi, np.pi, 5)
        got = reconstruct(boundary_envelopes(zero, params, forcing), xs)
        assert np.all(got == 0)

    def test_linear_in_alpha(self):
        params = params_for(n=2)
        zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        xs = np.linspace(-np.pi, np.pi, 33)
        one = reconstruct(boundary_envelopes(
            zero, params, BoundaryForcing.even_given(1.0, 0.0, p=1)), xs)
        two = reconstruct(boundary_envelopes(
            zero, params, BoundaryForcing.even_given(2.0, 0.0, p=1)), xs)
        assert np.max(np.abs(two - 2 * one)) < 1e-13

    def test_boundary_layer_decay(self):
        # the wall-layer envelope |E+| + |E-| decays from the wall into the
        # element interior on a scale of about one length unit
        params = params_for(n=2)
        h = params.h
        zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        for name, (al, be) in (("alpha", (1.0, 0.0)), ("beta", (0.0, 1.0))):
            forcing = BoundaryForcing.even_given(al, be, p=1)
            plus, minus = boundary_envelopes(zero, params, forcing)
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

    def test_out_of_element_rejected(self):
        params = params_for(n=3)
        with pytest.raises(ValueError, match="outside the element"):
            boundary_profiles(params, SignChoice.UPPER, [0.6 * params.h])

    def test_sign_selects_wall_kind(self):
        # the profiles of each sign are those of the matching kind of wall data
        params = params_for(p=2, n=2)
        xs = np.linspace(-params.h / 2, params.h / 2, 9)
        zero = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        for sign, make in ((SignChoice.UPPER, BoundaryForcing.even_given),
                           (SignChoice.LOWER, BoundaryForcing.odd_given)):
            table = boundary_profiles(params, sign, xs)
            expect = reconstruct(boundary_envelopes(zero, params, make(0.0, 1.0, p=2)), xs)
            assert np.array_equal(table["beta_profile"], expect)
