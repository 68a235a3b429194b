import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from shlattice import (
    BoundaryForcing,
    BoundedStepper,
    DivergenceError,
    FieldGrid,
    ForcingKind,
    SpectralStepper,
    conjugate_state,
    extract_amplitudes,
    integrate_bounded,
    integrate_spectral,
    lattice_field,
    make_params,
    measure_growth_rate,
)
from shlattice.direct_solver import _etd_coefficients, growth_symbol


def params_for(r=0.0, gamma=1.0, p=1, n=4, m=64):
    return make_params(r=r, gamma=gamma, p=p, n_elements=n, m_samples=m)


def one_step(grid, params, dt):
    """One ETDRK4 step of a periodic grid through SpectralStepper.step."""
    stepper = SpectralStepper(len(grid.u), grid.length, params.r, dt)
    return stepper.to_physical(stepper.step(stepper.to_spectral(grid.u)))


class TestStepSpectral:
    """SpectralStepper.step, SpectralStepper.run and integrate_spectral."""

    def test_zero_fixed_point(self):
        params = params_for()
        grid = FieldGrid.zeros(params, periodic=True)
        assert np.all(one_step(grid, params, 0.1) == 0)
        assert np.all(integrate_spectral(grid, params, 1.0, 0.1).u == 0)

    def test_neutral_mode_unchanged(self):
        # u = eps cos(x), r = 0: mode k=1 is neutral
        params = params_for(r=0.0, n=4, m=64)
        grid = FieldGrid.sample(lambda x: 1e-6 * np.cos(x), params)
        out = one_step(grid, params, 0.1)
        m0 = abs(np.fft.rfft(grid.u)[4])   # k=1 is mode 4 on a 4-element domain
        m1 = abs(np.fft.rfft(out)[4])
        assert abs(m1 / m0 - 1.0) < 1e-8

    def test_harmonic_decays_at_exact_rate(self):
        # mode k=2 at r=0 decays by exp(-9 dt) per step
        params = params_for(r=0.0, n=4, m=64)
        grid = FieldGrid.sample(lambda x: 1e-6 * np.cos(2 * x), params)
        dt = 0.1
        out = one_step(grid, params, dt)
        m0 = abs(np.fft.rfft(grid.u)[8])
        m1 = abs(np.fft.rfft(out)[8])
        assert abs(m1 / m0 / np.exp(-9 * dt) - 1.0) < 1e-6

    def test_rejects_bad_grids(self):
        params = params_for()
        bounded = FieldGrid.zeros(params, periodic=False)
        with pytest.raises(ValueError):
            integrate_spectral(bounded, params, 0.1, 0.1)
        odd = FieldGrid(0.0, 0.1, np.zeros(100), True)
        with pytest.raises(ValueError):
            integrate_spectral(odd, params, 0.1, 0.1)

    def test_field_stays_real_and_bounded(self):
        # 1000 steps from real data: the state is carried as a real array,
        # so imaginary leakage is identically zero; check it stays finite
        # and on the attractor scale
        params = params_for(r=0.3, n=4, m=64)
        rng = np.random.default_rng(0)
        grid = FieldGrid.sample(
            lambda x: 0.3 * np.cos(x) + 0.01 * rng.standard_normal(x.size), params)
        out = integrate_spectral(grid, params, t_end=50.0, dt=0.05)
        assert out.u.dtype == np.float64
        assert np.all(np.isfinite(out.u))
        assert np.max(np.abs(out.u)) < 2.0

    def test_norm_decays_for_negative_r(self):
        params = params_for(r=-0.1, n=4, m=64)
        rng = np.random.default_rng(1)
        grid = FieldGrid.sample(lambda x: 1e-3 * rng.standard_normal(x.size), params)
        stepper = SpectralStepper(len(grid.u), grid.length, params.r, 0.1)
        norms = [np.linalg.norm(grid.u)]
        steps = []

        def record(i, v):
            steps.append(i)
            norms.append(np.linalg.norm(stepper.to_physical(v)))

        stepper.run(stepper.to_spectral(grid.u), 200, callback=record)
        assert steps == list(range(1, 201))
        diffs = np.diff(norms)
        assert np.all(diffs <= 1e-15)

    def test_self_convergence(self):
        params = params_for(r=0.3, n=4, m=64)
        grid = FieldGrid.sample(lambda x: 0.5 * np.cos(x) + 0.1 * np.sin(2 * x), params)
        sols = [integrate_spectral(grid, params, 5.0, dt).u
                for dt in (0.2, 0.1, 0.05)]
        e1 = np.max(np.abs(sols[0] - sols[1]))
        e2 = np.max(np.abs(sols[1] - sols[2]))
        assert np.log2(e1 / e2) >= 1.9

    def test_run_matches_repeated_steps(self):
        params = params_for(r=0.3, n=4, m=64)
        grid = FieldGrid.sample(lambda x: 0.5 * np.cos(x) + 0.1 * np.sin(2 * x), params)
        stepper = SpectralStepper(len(grid.u), grid.length, params.r, 0.05)
        v = stepper.to_spectral(grid.u)
        for _ in range(40):
            v = stepper.step(v)
        assert np.array_equal(stepper.run(stepper.to_spectral(grid.u), 40), v)
        out = integrate_spectral(grid, params, 2.0, 0.05)
        assert np.array_equal(out.u, stepper.to_physical(v))


class TestMeasureGrowthRate:
    def test_at_critical_wavenumber(self):
        params = params_for(r=0.1, n=8, m=32)
        rate = measure_growth_rate(params, 1.0, eps0=1e-6, T=5.0)
        assert rate == pytest.approx(0.1, abs=1e-6)

    def test_neutral_mode(self):
        params = params_for(r=0.0, n=8, m=32)
        rate = measure_growth_rate(params, 1.0, eps0=1e-6, T=5.0)
        assert rate == pytest.approx(0.0, abs=1e-8)

    def test_off_critical(self):
        params = params_for(r=0.1, n=8, m=32)
        rate = measure_growth_rate(params, 1.2, eps0=1e-6, T=5.0)
        assert rate == pytest.approx(0.1 - (1 - 1.44) ** 2, abs=1e-5)

    def test_incommensurate_rejected(self):
        params = params_for(r=0.0)
        with pytest.raises(ValueError):
            measure_growth_rate(params, np.pi / 3, eps0=1e-6, T=1.0)

    def test_symbol_helper(self):
        assert growth_symbol(0.0, 0.0) == pytest.approx(-1.0)
        assert growth_symbol(1.0, 0.1) == pytest.approx(0.1)


def etd_reference(z: float) -> list[float]:
    """q, f1, f2, f3 (divided by dt) at z from the closed forms in 50-digit
    decimal arithmetic, enough to absorb their cancellation near z = 0."""
    if z == 0.0:
        return [0.5, 1 / 6, 1 / 6, 1 / 6]
    with localcontext() as ctx:
        ctx.prec = 50
        z = Decimal(z)
        e = z.exp()
        return [float(v) for v in (
            ((z / 2).exp() - 1) / z,
            (-4 - z + e * (4 - 3 * z + z * z)) / z ** 3,
            (2 + z + e * (z - 2)) / z ** 3,
            (-4 - 3 * z - z * z + e * (4 - z)) / z ** 3)]


class TestEtdCoefficients:
    """_etd_coefficients: closed forms for |z| >= 1/2, series below."""

    F1_ROOT = -2.688   # f1 changes sign near here

    def test_match_50_digit_reference(self):
        z = np.concatenate([
            -np.logspace(6, -10, 161), [0.0], np.logspace(-10, np.log10(16), 121),
            np.linspace(-0.52, -0.48, 81), np.linspace(0.48, 0.52, 81),
            [np.nextafter(-0.5, 0.0), np.nextafter(0.5, 0.0)],
            np.linspace(self.F1_ROOT - 0.1, self.F1_ROOT + 0.1, 201)])
        got = _etd_coefficients(z)
        ref = np.array([etd_reference(v) for v in z]).T
        err = np.abs(got - ref)
        near_root = np.abs(z - self.F1_ROOT) <= 0.1
        assert np.sign(ref[1, near_root]).min() < 0 < np.sign(ref[1, near_root]).max()
        assert err[1, near_root].max() <= 1e-16
        err[1, near_root] = 0.0
        assert (err / np.abs(ref)).max() <= 1e-13

    def test_continuous_across_series_switch(self):
        for edge in (-0.5, 0.5):
            inside, outside = _etd_coefficients(np.array([np.nextafter(edge, 0.0), edge])).T
            np.testing.assert_allclose(inside, outside, rtol=1e-13, atol=0.0)


class TestStepBounded:
    def test_zero_fixed_point(self):
        params = params_for(n=4)
        grid = FieldGrid.zeros(params, periodic=False)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        stepper = BoundedStepper(grid, params, forcing, dt=0.3 * grid.dx ** 2)
        assert np.all(stepper.step(grid.u, 0.0) == 0)
        out = integrate_bounded(grid, params, forcing, t_end=0.1,
                                dt=0.3 * grid.dx ** 2)
        assert np.all(out.u == 0)

    def test_even_wall_value_enforced(self):
        # u = 0 start, alpha = 0.1, p = 1: wall sample is (-1)^p alpha = -0.1
        params = params_for(n=4)
        grid = FieldGrid.zeros(params, periodic=False)
        forcing = BoundaryForcing.even_given(0.1, 0.0, p=1)
        out = integrate_bounded(grid, params, forcing, t_end=1.0,
                                dt=0.4 * grid.dx ** 2)
        assert abs(out.u[0] + 0.1) <= 2e-3
        assert abs(out.u[-1] + 0.1) <= 2e-3  # mirrored wall, same signals

    def test_interior_growth_rate(self):
        # eps sin(x - x0) under homogeneous even-data walls grows at rate r
        params = params_for(r=0.05, n=8, m=64)
        x0 = -params.h / 2
        grid = FieldGrid.sample(lambda x: 1e-3 * np.sin(x - x0), params,
                                periodic=False)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        dt = 0.4 * grid.dx ** 2
        n = len(grid.u)
        times, amps = [0.0], [np.max(np.abs(grid.u[n // 4:3 * n // 4]))]
        g = grid
        for seg in range(1, 11):
            g = integrate_bounded(g, params, forcing, t_end=2.0, dt=dt)
            times.append(2.0 * seg)
            amps.append(np.max(np.abs(g.u[n // 4:3 * n // 4])))
        rate = np.polyfit(times, np.log(amps), 1)[0]
        assert rate == pytest.approx(0.05, abs=0.005)
        # cross-check: the same mode on the odd-extension periodic domain
        params2 = make_params(r=0.05, gamma=1.0, p=1, n_elements=16, m_samples=64)
        rate_periodic = measure_growth_rate(params2, 1.0, eps0=1e-3, T=20.0)
        assert rate == pytest.approx(rate_periodic, abs=0.005)

    def test_odd_walls_match_even_extension(self):
        # cos modes satisfy homogeneous odd-derivative walls; the bounded run
        # must match the periodic run of the (identical) even extension
        params = params_for(r=0.3, n=2, m=128)
        x0 = -params.h / 2
        init = lambda x: 0.1 * np.cos(x - x0) + 0.02 * np.cos(2 * (x - x0))
        grid_b = FieldGrid.sample(init, params, periodic=False)
        forcing = BoundaryForcing.odd_given(0.0, 0.0, p=1)
        out_b = integrate_bounded(grid_b, params, forcing, t_end=1.0,
                                  dt=0.4 * grid_b.dx ** 2)
        params2 = make_params(r=0.3, gamma=1.0, p=1, n_elements=4, m_samples=128)
        grid_p = FieldGrid.sample(init, params2, periodic=True, x0=x0)
        out_p = integrate_spectral(grid_p, params2, t_end=1.0, dt=0.01)
        nb = len(out_b.u)
        assert np.max(np.abs(out_b.u - out_p.u[:nb])) <= 1e-4

    def test_self_convergence(self):
        params = params_for(r=0.2, n=2, m=64)
        x0 = -params.h / 2
        grid = FieldGrid.sample(
            lambda x: 0.2 * np.cos(x - x0) + 0.05 * np.cos(3 * (x - x0)),
            params, periodic=False)
        forcing = BoundaryForcing.odd_given(0.0, 0.0, p=1)
        dt0 = 0.25 * grid.dx ** 2
        sols = [integrate_bounded(grid, params, forcing, 0.5, dt0 / f).u
                for f in (1, 2, 4)]
        e1 = np.max(np.abs(sols[0] - sols[1]))
        e2 = np.max(np.abs(sols[1] - sols[2]))
        assert np.log2(e1 / e2) >= 1.9

    def test_unstable_dt_rejected(self):
        params = params_for(n=4)
        grid = FieldGrid.zeros(params, periodic=False)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        with pytest.raises(ValueError):
            BoundedStepper(grid, params, forcing, dt=grid.dx)
        with pytest.raises(ValueError):
            integrate_bounded(grid, params, forcing, t_end=1.0, dt=grid.dx)

    def test_periodic_kind_rejected(self):
        params = params_for(n=4)
        grid = FieldGrid.zeros(params, periodic=False)
        with pytest.raises(ValueError):
            BoundedStepper(grid, params, BoundaryForcing.periodic(), dt=1e-4)
        with pytest.raises(ValueError):
            integrate_bounded(grid, params, BoundaryForcing.periodic(), 0.01, 1e-4)
        per = FieldGrid.zeros(params, periodic=True)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        with pytest.raises(ValueError):
            BoundedStepper(per, params, forcing, dt=1e-4)
        with pytest.raises(ValueError):
            integrate_bounded(per, params, forcing, 0.01, 1e-4)

    def test_sin_locking_phase(self):
        # even-data walls lock the extracted roll phase onto +-90 degrees
        params = params_for(r=0.05, n=2, m=64)
        st = conjugate_state(0.0, np.full(2, 0.05 * np.exp(1j * np.pi / 4)))
        grid = lattice_field(st, params, periodic=False)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        out = integrate_bounded(grid, params, forcing, t_end=40.0,
                                dt=0.4 * grid.dx ** 2)
        a1 = extract_amplitudes(out, params).a[0]
        phase = np.degrees(np.angle(a1))
        assert min(abs(phase - 90), abs(phase + 90)) < 10


class TestBadInput:
    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_integrate_spectral_rejects_nonpositive_dt(self, dt):
        params = params_for()
        grid = FieldGrid.zeros(params, periodic=True)
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate_spectral(grid, params, t_end=1.0, dt=dt)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_integrate_bounded_rejects_nonpositive_dt(self, dt):
        params = params_for()
        grid = FieldGrid.zeros(params, periodic=False)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate_bounded(grid, params, forcing, t_end=1.0, dt=dt)

    def test_bounded_divergence_raises_divergence_error(self):
        params = params_for(n=2, m=32)
        grid = FieldGrid.sample(lambda x: 1e3 * np.cos(x), params, periodic=False)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        with pytest.raises(DivergenceError, match=r"bounded solve diverged at step \d+, t="):
            integrate_bounded(grid, params, forcing, t_end=1.0,
                              dt=0.4 * grid.dx ** 2)

    def test_spectral_divergence_raises_divergence_error(self):
        params = params_for(n=2, m=32)
        grid = FieldGrid.sample(lambda x: 1e200 * np.cos(x), params)
        with pytest.raises(DivergenceError, match="spectral solve diverged at step 1, t=0.1"):
            integrate_spectral(grid, params, t_end=1.0, dt=0.1)

    def test_bounded_nonfinite_initial_field_rejected(self):
        params = params_for(n=2, m=32)
        grid = FieldGrid.zeros(params, periodic=False)
        grid.u[5] = np.nan
        forcing = BoundaryForcing.odd_given(0.0, 0.0, p=1)
        with pytest.raises(ValueError, match="NaN/Inf"):
            integrate_bounded(grid, params, forcing, t_end=1.0,
                              dt=0.4 * grid.dx ** 2)

    def test_spectral_nonfinite_initial_field_rejected(self):
        params = params_for(n=2, m=32)
        grid = FieldGrid.zeros(params, periodic=True)
        grid.u[5] = np.nan
        with pytest.raises(ValueError, match="NaN/Inf"):
            integrate_spectral(grid, params, t_end=1.0, dt=0.1)
        stepper = SpectralStepper(len(grid.u), grid.length, params.r, 0.1)
        with pytest.raises(ValueError, match="NaN/Inf"):
            stepper.run(stepper.to_spectral(grid.u), 3)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_spectral_infinite_initial_field_rejected_quietly(self, value):
        params = params_for(n=2, m=32)
        grid = FieldGrid.zeros(params, periodic=True)
        grid.u[5] = value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="spectral solve: start state contains NaN/Inf"):
                integrate_spectral(grid, params, t_end=1.0, dt=0.1)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("eps0", [0.0, -1e-6, np.nan, np.inf])
    def test_growth_rate_rejects_bad_eps0(self, eps0):
        with pytest.raises(ValueError, match="eps0 must be finite and positive"):
            measure_growth_rate(params_for(), 1.0, eps0=eps0, T=1.0)

    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_nonpositive_span_rejected(self, t_end):
        params = params_for()
        with pytest.raises(ValueError, match="t_end must exceed"):
            integrate_spectral(FieldGrid.zeros(params, periodic=True), params, t_end, 0.1)
        grid = FieldGrid.zeros(params, periodic=False)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        with pytest.raises(ValueError, match="t_end must exceed"):
            integrate_bounded(grid, params, forcing, t_end, 1e-4)
        with pytest.raises(ValueError, match="t_end must exceed"):
            measure_growth_rate(params, 1.0, eps0=1e-6, T=t_end)

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_constructors_reject_nonpositive_dt(self, dt):
        params = params_for()
        grid = FieldGrid.zeros(params, periodic=False)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        with pytest.raises(ValueError, match="dt must be positive"):
            BoundedStepper(grid, params, forcing, dt=dt)
        with pytest.raises(ValueError, match="dt must be positive"):
            SpectralStepper(128, 8 * np.pi, 0.0, dt)
        with pytest.raises(ValueError, match="dt must be positive"):
            measure_growth_rate(params, 1.0, eps0=1e-6, T=1.0, dt=dt)


def reference_step(stepper, u, t):
    """One IMEX step assembled as in the solve_banded implementation: full
    wall-data vectors, diagonal-by-diagonal A u and a fresh banded solve
    (factorise and solve) for each of the two stages."""
    n, dx, dt = stepper.n, stepper.dx, stepper.dt
    d0, dm1, dm2, dp1, dp2 = stepper.stencil

    def apply_a(v):
        y = d0 * v
        y[1:] += dm1[1:] * v[:-1]
        y[2:] += dm2[2:] * v[:-2]
        y[:-1] += dp1[:-1] * v[1:]
        y[:-2] += dp2[:-2] * v[2:]
        for row in stepper.pinned:
            y[row] = 0.0
        return y

    def data(time):
        g = np.zeros(n)
        pinned = {}
        left, right = stepper.left, stepper.right
        al = left.parity_factor * left.alpha_at(time)
        bl = left.parity_factor * left.beta_at(time)
        ar = right.parity_factor * right.alpha_at(time)
        br = right.parity_factor * right.beta_at(time)
        if stepper.kind is ForcingKind.EVEN_GIVEN:
            pinned = {0: al, n - 1: ar}
            g[1] = -bl / dx ** 2
            g[n - 2] = -br / dx ** 2
        else:
            g[0] = 4.0 * al / dx - 4.0 * al / dx ** 3 + 2.0 * bl / dx
            g[1] = 2.0 * al / dx ** 3
            g[n - 1] = 4.0 * ar / dx - 4.0 * ar / dx ** 3 + 2.0 * br / dx
            g[n - 2] = 2.0 * ar / dx ** 3
        return g, pinned

    def cubic(v):
        w = -v * v * v
        for row in stepper.pinned:
            w[row] = 0.0
        return w

    g0, _ = data(t)
    g1, pinned = data(t + dt)
    base = u + (dt / 2.0) * apply_a(u) + (dt / 2.0) * (g0 + g1)
    n0 = cubic(u)
    rhs = base + dt * n0
    for row, val in pinned.items():
        rhs[row] = val
    u_star = solve_banded((2, 2), stepper.ab_minus, rhs)
    rhs = base + (dt / 2.0) * (n0 + cubic(u_star))
    for row, val in pinned.items():
        rhs[row] = val
    return solve_banded((2, 2), stepper.ab_minus, rhs)


WALLS = {"even": BoundaryForcing.even_given, "odd": BoundaryForcing.odd_given}
EXACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestFactoredSolve:
    """The stepper factorises I - dt/2 A once; its solves and trajectories
    must equal those of a fresh solve_banded call bit for bit."""

    @EXACT
    @given(kind=st.sampled_from(["even", "odd"]), n=st.integers(7, 600),
           periods=st.integers(1, 8), r=st.floats(-0.5, 0.5),
           dt_frac=st.floats(0.01, 1.0), c_stab=st.sampled_from([0.25, 0.5, 2.0]),
           scale=st.sampled_from([1e-6, 1.0, 1e6]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_solve_matches_solve_banded(self, kind, n, periods, r, dt_frac,
                                        c_stab, scale, seed):
        params = make_params(r=r, gamma=1.0, p=1, n_elements=2, m_samples=16)
        grid = FieldGrid(0.0, 2.0 * np.pi * periods / (n - 1), np.zeros(n), False)
        stepper = BoundedStepper(grid, params, WALLS[kind](0.0, 0.0, p=1),
                                 dt=dt_frac * c_stab * grid.dx ** 2, c_stab=c_stab)
        rhs = scale * np.random.default_rng(seed).standard_normal(stepper.n)
        expected = solve_banded((2, 2), stepper.ab_minus, rhs)
        assert np.array_equal(stepper._solve(rhs.copy()), expected)

    @pytest.mark.parametrize("kind", ["even", "odd"])
    @pytest.mark.parametrize("n_elements, m", [(2, 16), (3, 16), (2, 64)])
    def test_trajectory_matches_solve_banded_steps(self, kind, n_elements, m):
        params = make_params(r=0.1, gamma=1.0, p=1, n_elements=n_elements,
                             m_samples=m)
        rng = np.random.default_rng(m + n_elements)
        a0 = 0.1 * (rng.standard_normal(n_elements)
                    + 1j * rng.standard_normal(n_elements))
        grid = lattice_field(conjugate_state(0.0, a0), params, periodic=False)
        left = WALLS[kind](lambda t: 0.03 * np.cos(0.7 * t), 0.02, p=1)
        right = WALLS[kind](0.01, lambda t: -0.02 * np.sin(1.3 * t), p=2)
        t0, n_steps = 0.25, 150
        t_end = t0 + n_steps * 0.45 * grid.dx ** 2
        out = integrate_bounded(grid, params, left, t_end=t_end,
                                dt=0.45 * grid.dx ** 2, t0=t0, forcing_right=right)
        stepper = BoundedStepper(grid, params, left, (t_end - t0) / n_steps,
                                 forcing_right=right)
        u, t = grid.u, t0
        for i in range(n_steps):
            u = reference_step(stepper, u, t)
            t = t0 + (i + 1) * stepper.dt
        assert np.array_equal(out.u, u)
