import functools
import warnings
from decimal import Decimal, localcontext
from itertools import accumulate, repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shlattice import (
    BoundaryForcing,
    BoundedStepper,
    DivergenceError,
    FieldGrid,
    ForcingKind,
    SpectralStepper,
    conjugate_state,
    integrate_bounded,
    integrate_spectral,
    lattice_field,
    make_params,
    measure_growth_rate,
    oracle_amplitudes,
    run_model,
)
from shlattice.direct_solver import _default_dt, _etd_coefficients, _fit_steps, growth_symbol


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

    @pytest.mark.parametrize("n_elements", [3, 5])
    def test_any_sample_count(self, n_elements):
        # 96 and 160 samples: integrate_spectral is SpectralStepper.run on
        # the grid, whatever its sample count
        params = params_for(r=0.3, n=n_elements, m=32)
        rng = np.random.default_rng(n_elements)
        grid = FieldGrid.sample(lambda x: 0.1 * np.cos(x) + 0.01 * rng.standard_normal(x.size),
                                params)
        out = integrate_spectral(grid, params, 1.0, 0.05)
        stepper = SpectralStepper(len(grid.u), grid.length, params.r, 1.0 / 20)
        v = stepper.run(stepper.to_spectral(grid.u), 20)
        assert np.array_equal(out.u, stepper.to_physical(v))
        odd = FieldGrid(0.0, 0.1, np.zeros(100), True)
        assert np.array_equal(integrate_spectral(odd, params, 0.1, 0.1).u, odd.u)

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

    def test_default_step_is_the_oracles_own(self):
        params = params_for(r=0.3, n=4, m=64)
        grid = FieldGrid.sample(lambda x: 0.5 * np.cos(x) + 0.1 * np.sin(2 * x), params)
        assert np.array_equal(integrate_spectral(grid, params, 3.3).u,
                              integrate_spectral(grid, params, 3.3, 0.05).u)


def fft_nonlinear(stepper):
    """The stepper's nonlinear term through np.fft.irfft and np.fft.rfft."""
    def nonlinear(v, out=None):
        u = np.fft.irfft(v, stepper.n)
        cube = -u   # (-u u) u, the order `nonlinear` forms it in
        cube *= u
        cube *= u
        w = np.fft.rfft(cube)
        w[stepper.cutoff:] = 0.0
        if out is None:
            return w
        out[...] = w
        return out
    return nonlinear


def spectral_pair(n):
    """Two identical steppers and a start state; the second transforms
    through np.fft."""
    length = 2.0 * np.pi * 8
    x = length * np.arange(n) / n
    u = (0.4 * np.cos(x) + 0.2 * np.sin(3 * x)
         + 0.05 * np.random.default_rng(n).standard_normal(n))
    stepper, reference = (SpectralStepper(n, length, 0.2, 0.05) for _ in range(2))
    reference.nonlinear = fft_nonlinear(reference)
    return stepper, reference, stepper.to_spectral(u)


class TestPocketfftTransforms:
    """`nonlinear` calls the pocketfft gufuncs behind np.fft directly: rfft
    through the kernel of n's parity, so both are run here."""

    @pytest.mark.parametrize("n", [64, 96, 100, 512, 513])
    def test_match_np_fft_bit_for_bit(self, n):
        stepper, reference, v = spectral_pair(n)
        got = stepper.nonlinear(v, np.empty_like(v))
        assert got.tobytes() == reference.nonlinear(v).tobytes()
        assert stepper.run(v, 200).tobytes() == reference.run(v, 200).tobytes()

    def test_run_does_not_call_the_np_fft_wrappers(self, monkeypatch):
        stepper, reference, v = spectral_pair(512)
        expected = reference.run(v, 20)

        def wrapper(*args, **kwargs):
            raise AssertionError("the ETDRK4 step went through the np.fft wrapper")

        monkeypatch.setattr(np.fft, "rfft", wrapper)
        monkeypatch.setattr(np.fft, "irfft", wrapper)
        assert np.array_equal(stepper.run(v, 20), expected)


def test_nonlinear_keeps_the_lower_two_thirds_of_the_modes():
    # the two-thirds rule at n = 64: u = cos 7x + cos 8x cubes into modes
    # up to 24, and every mode above 64 // 3 = 21 is zeroed, while modes up
    # to 21, with 21 = 7 + 7 + 7 among them, keep rfft(-u^3)
    n = 64
    x = 2.0 * np.pi * np.arange(n) / n
    u = np.cos(7 * x) + np.cos(8 * x)
    stepper = SpectralStepper(n, 2.0 * np.pi, 0.1, 0.05)
    got = stepper.nonlinear(np.fft.rfft(u), np.empty(n // 2 + 1, dtype=complex))
    full = np.fft.rfft(-u ** 3)
    assert np.all(np.abs(full[21:25]) > 1.0)   # the cube reaches both sides of the cut
    assert np.all(got[n // 3 + 1:] == 0.0)
    assert np.max(np.abs(got[:n // 3 + 1] - full[:n // 3 + 1])) <= 1e-12


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

    def test_nonlinear_regime_stops_the_fit(self):
        # at eps0 = 3 the explicit cubic blows the mode past 100 eps0 within
        # the first step of 0.5; no linear mode outgrows exp(max(r, 0) t), so
        # the run stops there at any r, before it overflows
        for r in (-0.1, 0.1):
            with pytest.raises(DivergenceError, match=(
                    r"^spectral solve diverged at step 1, t=0.5: mode 1.0 reached the "
                    r"nonlinear regime \(\|u_k\| > 100 \|u_k\(0\)\| "
                    r"exp\(max\(r, 0\) t\)\)$")):
                measure_growth_rate(params_for(r=r), 1.0, eps0=3.0, T=5.0, dt=0.5)

    def test_overflow_in_the_first_step_is_divergence(self):
        # the r = 0.1, eps0 = 3 run used to overflow at step 3; the guard now
        # stops it first, so the overflow is pinned on a seed whose first cube
        # is already infinite
        with pytest.raises(DivergenceError,
                           match=r"^spectral solve diverged at step 1, t=0.5: NaN/Inf$"):
            measure_growth_rate(params_for(r=0.1), 1.0, eps0=1e200, T=5.0, dt=0.5)

    @staticmethod
    def assert_curved(eps0, misfit, **step):
        # below the ceiling but nonlinear: log|u_k| bends away from a line
        # (eps0 = 1 used to return -0.1375 against the linear rate 0.1)
        with pytest.raises(DivergenceError, match=(
                rf"^growth-rate fit of mode 1.0 failed: log\|u_k\| departs from its "
                rf"line by {misfit} > 1e-05 \(the seed eps0={eps0:g} is not linear\)$")):
            measure_growth_rate(params_for(r=0.1, n=8, m=32), 1.0, eps0=eps0, T=5.0, **step)

    @pytest.mark.parametrize("eps0, misfit", [(1.0, "0.227"), (0.3, "0.00764")])
    def test_curved_log_amplitude_is_rejected(self, eps0, misfit):
        self.assert_curved(eps0, misfit, dt=0.02)

    @pytest.mark.parametrize("eps0, misfit", [(1.0, "0.222"), (0.3, "0.0075")])
    def test_curved_log_amplitude_is_rejected_at_the_default_step(self, eps0, misfit):
        self.assert_curved(eps0, misfit)   # T/50 = 0.1

    def test_mode_that_underflows_is_divergence(self):
        # mode 170 on one period decays at -8.4e8 and reached 0 within the
        # fit: log(0) used to warn and the NaN misfit passed, so the rate
        # came back NaN.  It falls past the floor at its second step.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=(
                    r"^growth-rate fit of mode 170.0 failed: \|u_k\| fell below 1e-30 of its "
                    r"start at t=0.04, before the 10 samples a fit needs$")):
                measure_growth_rate(params_for(r=0.0), 170.0, eps0=1e-6, T=100.0)

    @staticmethod
    def counted_steps(monkeypatch):
        steps, step = [], SpectralStepper.step
        monkeypatch.setattr(SpectralStepper, "step",
                            lambda self, v: steps.append(1) or step(self, v))
        return steps

    def test_floor_stops_the_run_at_its_first_sample_below(self, monkeypatch):
        # mode 170 reached 0 at step 2099 of 5000 and passes the floor at
        # step 2: the fit raises there instead of stepping on to T
        steps = self.counted_steps(monkeypatch)
        with pytest.raises(DivergenceError, match=r"fell below 1e-30 of its start at t=0.04"):
            measure_growth_rate(params_for(r=0.0), 170.0, eps0=1e-6, T=100.0)
        assert len(steps) == 2

    # at eps0 = 1e-3 the cubic moves the rate by 7.4e-10
    @pytest.mark.parametrize("eps0, tol", [(1e-6, 1e-10), (1e-3, 1e-8)])
    def test_fast_decaying_mode_is_fitted_above_the_floor(self, monkeypatch, eps0, tol):
        # lambda = -29.5625 over T = 10 is a decay of e^-296; past about
        # 1e-60 of its start log|u_k| flattens at the cubic's rounding, and
        # the fit through those samples failed by a misfit of 33.  The run
        # stops at sample 35 of 148 (e^-69.9 < 1e-30 < e^-67.9) and fits
        # the 35 before it.
        steps = self.counted_steps(monkeypatch)
        rate = measure_growth_rate(params_for(r=-2.0), 2.5, eps0=eps0, T=10.0)
        assert rate == pytest.approx(-29.5625, abs=tol)
        assert len(steps) == 35

    def test_stiff_mode_with_few_samples_is_divergence(self):
        # lambda = -1235 at the step floor 0.02 decays by e^-24.7 a step and
        # passes the floor at sample 3; the cubic's stages, held over that
        # step, put -1234.99997 through the misfit check of three samples.
        # A finer step keeps the fit's samples and its rate
        params = params_for(r=-10.0)
        with pytest.raises(DivergenceError, match=(
                r"^growth-rate fit of mode 6.0 failed: \|u_k\| fell below 1e-30 of its "
                r"start at t=0.06, before the 10 samples a fit needs$")):
            measure_growth_rate(params, 6.0, eps0=1e-6, T=1.0)
        rate = measure_growth_rate(params, 6.0, eps0=1e-6, T=1.0, dt=0.001)
        assert rate == pytest.approx(-1235.0, abs=1e-9)

    def test_fit_takes_at_least_nine_steps(self):
        # a short fit, or a coarse explicit step, still has ten samples
        assert _fit_steps(0.1, 1.0, 0.04) == 9
        assert _fit_steps(0.1, 1.0, 0.1, 0.05) == 9
        assert _fit_steps(0.1, 1.0, 5.0) == 50
        assert measure_growth_rate(params_for(r=0.1), 1.0, eps0=1e-6, T=0.04) == pytest.approx(
            0.1, abs=1e-9)

    def test_ceiling_past_the_float_range_is_quiet(self):
        # exp(r t) overflows for t > 142 at r = 5: that ceiling bounds
        # nothing, and no overflow warning escapes while it is formed
        with pytest.raises(DivergenceError, match="reached the nonlinear regime"):
            measure_growth_rate(params_for(r=5.0), 1.0, eps0=1e-6, T=200.0, dt=0.5)

    def test_small_seeds_pass_the_linearity_check(self):
        for eps0 in (1e-6, 1e-3):
            rate = measure_growth_rate(params_for(r=0.1, n=8, m=32), 1.0, eps0=eps0, T=5.0)
            assert rate == pytest.approx(0.1, abs=2e-6)

    def test_incommensurate_rejected(self):
        params = params_for(r=0.0)
        with pytest.raises(ValueError):
            measure_growth_rate(params, np.pi / 3, eps0=1e-6, T=1.0)

    def test_symbol_helper(self):
        assert growth_symbol(0.0, 0.0) == pytest.approx(-1.0)
        assert growth_symbol(1.0, 0.1) == pytest.approx(0.1)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(r=st.floats(-10, 10),
           k=st.sampled_from([1, 2, 4]).flatmap(lambda q: st.integers(1, 6 * q).map(
               lambda mode: mode / q)),
           log_eps0=st.floats(-8, -3), span=st.floats(0.25, 1))
    def test_derived_step_keeps_the_fine_step_verdict(self, r, k, log_eps0, span):
        # the CLI's ranges of r, k and eps0; T at most 20, so a fit at 0.02
        # takes at most 1000 steps, over which the mode changes by at most
        # e^500: far enough for the 2/|lambda_k| term to bind (|lambda_k| T
        # > 100), near enough that most fast modes stay above the rounding
        # of the cubic.  A fit that passes at 0.02 passes at the derived
        # step, on a rate within 1e-7 of its own, in no more steps
        lam = abs(float(growth_symbol(k, r)))
        T = span * min(20.0, 500.0 / lam if lam else 20.0)
        params, eps0 = params_for(r=r), 10.0 ** log_eps0
        assert _fit_steps(r, k, T) <= _fit_steps(r, k, T, 0.02)
        try:
            fine = measure_growth_rate(params, k, eps0, T, dt=0.02)
        except DivergenceError:
            return   # a fit that fails at 0.02 bounds nothing at the default
        assert measure_growth_rate(params, k, eps0, T) == pytest.approx(fine, abs=1e-7, rel=0)


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
        assert np.all(stepper.step(stepper.to_spectral(grid.u), 0.0) == 0)
        out = integrate_bounded(grid, params, forcing, t_end=0.1,
                                dt=0.3 * grid.dx ** 2)
        assert np.all(out.u == 0)

    def test_even_wall_value_enforced(self):
        # u = 0 start, alpha = 0.1, p = 1: wall sample is (-1)^p alpha = -0.1
        params = params_for(n=4)
        grid = FieldGrid.zeros(params, periodic=False)
        forcing = BoundaryForcing.even_given(0.1, 0.0, p=1)
        out = integrate_bounded(grid, params, forcing, t_end=1.0)
        assert abs(out.u[0] + 0.1) <= 2e-3
        assert abs(out.u[-1] + 0.1) <= 2e-3  # mirrored wall, same signals

    def test_interior_growth_rate(self):
        # eps sin(x - x0) under homogeneous even-data walls grows at rate r
        params = params_for(r=0.05, n=8, m=64)
        x0 = -params.h / 2
        grid = FieldGrid.sample(lambda x: 1e-3 * np.sin(x - x0), params,
                                periodic=False)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        n = len(grid.u)
        times, amps = [0.0], [np.max(np.abs(grid.u[n // 4:3 * n // 4]))]
        g = grid
        for seg in range(1, 11):
            g = integrate_bounded(g, params, forcing, t_end=2.0)
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
        out_b = integrate_bounded(grid_b, params, forcing, t_end=1.0)
        params2 = make_params(r=0.3, gamma=1.0, p=1, n_elements=4, m_samples=128)
        grid_p = FieldGrid.sample(init, params2, periodic=True)
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

    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_default_step_is_the_oracles_own(self, kind):
        params = params_for(r=0.1, n=2, m=32)
        grid = FieldGrid.sample(lambda x: 0.1 * np.cos(x), params, periodic=False)
        forcing = WALLS[kind](lambda t: 0.02 * np.cos(0.3 * t), 0.01, p=1)
        dt = 0.4 * grid.dx ** 2
        assert np.array_equal(integrate_bounded(grid, params, forcing, 1.5).u,
                              integrate_bounded(grid, params, forcing, 1.5, dt).u)
        assert np.array_equal(integrate_bounded(grid, params, forcing, 2.0, t0=0.5).u,
                              integrate_bounded(grid, params, forcing, 2.0, dt, 0.5).u)

    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_step_leaves_its_input_untouched(self, kind):
        params = params_for(r=0.1, n=2, m=32)
        grid = FieldGrid.sample(lambda x: 0.1 * np.cos(x) + 0.05 * np.sin(3 * x), params,
                                periodic=False)
        stepper = BoundedStepper(grid, params, WALLS[kind](0.02, 0.01, p=1),
                                 0.4 * grid.dx ** 2)
        v = stepper.to_spectral(grid.u)
        kept = v.copy()
        out = stepper.step(v, 0.0)
        assert np.array_equal(v, kept) and not np.shares_memory(out, v)

    def test_unstable_dt_rejected(self):
        params = params_for(n=4)
        grid = FieldGrid.zeros(params, periodic=False)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        with pytest.raises(ValueError):
            BoundedStepper(grid, params, forcing, dt=grid.dx)
        with pytest.raises(ValueError):
            integrate_bounded(grid, params, forcing, t_end=1.0, dt=grid.dx)
        # the bound is dt <= dx^2/2
        BoundedStepper(grid, params, forcing, dt=0.5 * grid.dx ** 2)
        with pytest.raises(ValueError, match=r"exceeds dx\^2/2"):
            BoundedStepper(grid, params, forcing, dt=0.501 * grid.dx ** 2)

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
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        a1 = oracle_amplitudes(st, params, forcing, 40.0)[-1, 0]
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
            integrate_bounded(grid, params, forcing, t_end=1.0)

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
            integrate_bounded(grid, params, forcing, t_end=1.0)

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

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_growth_rate_rejects_nonfinite_k(self, k):
        with pytest.raises(ValueError, match=rf"^wavenumber k must be finite, got {k}$"):
            measure_growth_rate(params_for(), k, eps0=1e-6, T=1.0)

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


def dense_operator(stepper, r, parity, t):
    """A and g(t) of a bounded stepper, built densely and independently of
    it: the five-point stencil of (r-1) - 2 D2 - D4 on u extended by two
    ghosts per end, composed with the ghost rules (mirrored at the right
    wall), with zero rows for the pinned wall samples.

    even walls: u_0 = P alpha, u_{-1} = 2 u_0 - u_1 + dx^2 P beta
    odd walls:  u_{-1} = u_1 - 2 dx P alpha,
                u_{-2} = u_2 - 4 dx P alpha - 2 dx^3 P beta
    Returns A, g, the pinned rows and their values.
    """
    n, dx = stepper.n, stepper.dx
    (al, bl), (ar, br) = stepper.forcing.signals(t)
    al, bl, ar, br = parity * al, parity * bl, parity * ar, parity * br
    weights = ((r - 1.0) * np.array([0, 0, 1, 0, 0])
               - 2.0 * np.array([0, 1, -2, 1, 0]) / dx ** 2
               - np.array([1, -4, 6, -4, 1]) / dx ** 4)
    stencil = np.zeros((n, n + 4))   # columns: u_{-2} .. u_{n+1}
    for i in range(n):
        stencil[i, i:i + 5] = weights
    # extended samples = E u + e: the ghosts from the rules, u itself inside
    E, e = np.zeros((n + 4, n)), np.zeros(n + 4)
    E[2:-2] = np.eye(n)
    if stepper.kind is ForcingKind.EVEN_GIVEN:
        E[1, :2], e[1] = (2.0, -1.0), dx ** 2 * bl
        E[n + 2, n - 2:], e[n + 2] = (-1.0, 2.0), dx ** 2 * br
        pinned, walls = [0, n - 1], [al, ar]
    else:
        E[1, 1], e[1] = 1.0, -2.0 * dx * al
        E[0, 2], e[0] = 1.0, -4.0 * dx * al - 2.0 * dx ** 3 * bl
        E[n + 2, n - 2], e[n + 2] = 1.0, -2.0 * dx * ar
        E[n + 3, n - 3], e[n + 3] = 1.0, -4.0 * dx * ar - 2.0 * dx ** 3 * br
        pinned, walls = [], []
    A, g = stencil @ E, stencil @ e
    A[pinned], g[pinned] = 0.0, 0.0
    return A, g, pinned, walls


def close(got, ref, rtol=1e-12):
    """Equal to within rtol of the reference's largest entry."""
    return np.abs(np.asarray(got) - ref).max() <= rtol * np.abs(ref).max()


def reference_step(stepper, r, u, t):
    """One Crank-Nicolson/Heun step assembled densely from dense_operator:
    the explicit half u + dt/2 (A u + g(t) + g(t + dt)), then two
    np.linalg.solve calls against I - dt/2 A, each right-hand side's
    pinned rows set to the wall data at t + dt."""
    dt, parity = stepper.dt, stepper.parity
    A, g0, pinned, _ = dense_operator(stepper, r, parity, t)
    _, g1, _, walls = dense_operator(stepper, r, parity, t + dt)
    M = np.eye(stepper.n) - dt / 2.0 * A

    def cubic(v):
        w = -v * v * v
        w[pinned] = 0.0
        return w

    base = u + dt / 2.0 * (A @ u + g0 + g1)
    n0 = cubic(u)
    rhs = base + dt * n0
    rhs[pinned] = walls
    u_star = np.linalg.solve(M, rhs)
    rhs = base + dt / 2.0 * (n0 + cubic(u_star))
    rhs[pinned] = walls
    return np.linalg.solve(M, rhs)


def reference_trajectory(stepper, r, u, t0, n_steps):
    states = []
    for i in range(n_steps):
        u = reference_step(stepper, r, u, t0 + i * stepper.dt)
        states.append(u)
    return states


def run_states(stepper, u, t0, n_steps):
    """The field after each step of stepper.run."""
    states = []
    stepper.run(u, t0, n_steps, callback=lambda i, v: states.append(stepper.to_physical(v)))
    return states


WALLS = {"even": BoundaryForcing.even_given, "odd": BoundaryForcing.odd_given}
EXACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("kind", ["periodic", "even", "odd"])
def test_run_hands_the_callback_its_spectrum(kind):
    # both steppers pass the state they hold; to_physical makes the field
    params = make_params(r=0.1, gamma=1.0, p=1, n_elements=2, m_samples=32)
    grid = lattice_field(conjugate_state(0.0, np.full(2, 0.05 + 0.03j)), params,
                         periodic=kind == "periodic")
    seen = []
    if kind == "periodic":
        stepper = SpectralStepper(len(grid.u), grid.length, params.r, 0.05)
        out = stepper.to_physical(stepper.run(stepper.to_spectral(grid.u), 5,
                                              callback=lambda i, v: seen.append(v)))
    else:
        stepper = BoundedStepper(grid, params, WALLS[kind](0.02, 0.01, p=1),
                                 0.4 * grid.dx ** 2)
        out = stepper.run(grid.u, 0.0, 5, callback=lambda i, v: seen.append(v))
    assert len(seen) == 5 and all(np.iscomplexobj(v) for v in seen)
    assert stepper.to_physical(seen[-1]).tobytes() == out.tobytes()


def switching(t):
    return 0.03 if t < 0.5 else -0.01


class TestMirroredSolve:
    """The solves of I - dt/2 A are diagonal on the mirrored transform;
    they and the stepper's trajectories match dense solves to rounding."""

    @EXACT
    @given(kind=st.sampled_from(["even", "odd"]), n=st.integers(7, 600),
           periods=st.integers(1, 8), r=st.floats(-0.5, 0.5),
           dt_frac=st.floats(0.01, 1.0), scale=st.sampled_from([1e-6, 1.0, 1e6]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_solve_matches_dense_solve(self, kind, n, periods, r, dt_frac, scale, seed):
        # dt_frac of the stability bound dt <= dx^2/2; the pinned rows of
        # the right-hand side hold zero walls
        params = make_params(r=r, gamma=1.0, p=1, n_elements=2, m_samples=16)
        grid = FieldGrid(0.0, 2.0 * np.pi * periods / (n - 1), np.zeros(n), False)
        stepper = BoundedStepper(grid, params, WALLS[kind](0.0, 0.0, p=1),
                                 dt=dt_frac * 0.5 * grid.dx ** 2)
        rhs = scale * np.random.default_rng(seed).standard_normal(n)
        rhs[stepper.pinned] = 0.0
        A, _, _, _ = dense_operator(stepper, r, 1.0, 0.0)
        expected = np.linalg.solve(np.eye(n) - stepper.dt / 2.0 * A, rhs)
        m = 1.0 - stepper.dt / 2.0 * stepper.symbol
        got = stepper.to_physical(stepper.to_spectral(rhs) / m)
        assert close(got, expected, 1e-12)

    @pytest.mark.parametrize("kind", ["even", "odd"])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("signals", ["forced", "switching"])
    def test_trajectory_matches_dense_solve_steps(self, kind, p, signals):
        params = make_params(r=0.1, gamma=1.0, p=p, n_elements=2, m_samples=32)
        rng = np.random.default_rng(p)
        a0 = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        grid = lattice_field(conjugate_state(0.0, a0), params, periodic=False)
        if signals == "forced":
            forcing = WALLS[kind](lambda t: 0.03 * np.cos(0.7 * t), 0.02, p=p,
                                  right=(0.01, lambda t: -0.02 * np.sin(1.3 * t)))
        else:
            forcing = WALLS[kind](switching, 0.01, p=p)
        stepper = BoundedStepper(grid, params, forcing, 0.45 * grid.dx ** 2)
        t0, n_steps = 0.25, 150
        assert t0 + n_steps * stepper.dt > 0.5   # the switch is crossed
        got = run_states(stepper, grid.u, t0, n_steps)
        expected = reference_trajectory(stepper, params.r, grid.u, t0, n_steps)
        t = t0
        for u, ref in zip(got, expected):
            assert close(u, ref, 1e-11)
            # the wall data hold exactly after every step, at its end time
            # on the run's clock, which accumulates t += dt
            t += stepper.dt
            walls = [params.parity_factor * pair[0] for pair in forcing.signals(t)]
            assert u[stepper.pinned].tolist() == (walls if kind == "even" else [])


class TestWallTermsMemo:
    """A step derives its wall terms again only when the signal values at
    t and t + dt, or the pinned samples it starts from, change; the
    trajectories stay those of reference_step."""

    @staticmethod
    def stepper(kind, forcing, p=1):
        """A stepper and a start field whose pinned samples hold the data
        at t = 0, as every run after the first segment starts."""
        params = make_params(r=0.1, gamma=1.0, p=p, n_elements=2, m_samples=32)
        rng = np.random.default_rng(7)
        a0 = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        grid = lattice_field(conjugate_state(0.0, a0), params, periodic=False)
        u0 = grid.u.copy()
        if kind == "even":
            u0[[0, -1]] = [params.parity_factor * pair[0] for pair in forcing.signals(0.0)]
        return BoundedStepper(grid, params, forcing, 0.4 * grid.dx ** 2), u0

    @staticmethod
    def count_data_calls(stepper):
        calls = []
        data = stepper._data

        def counted(signals):
            calls.append(signals)
            return data(signals)

        stepper._data = counted
        return calls

    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_switching_signal_matches_reference_steps(self, kind):
        stepper, u0 = self.stepper(kind, WALLS[kind](switching, 0.01, p=1))
        calls = self.count_data_calls(stepper)
        n_steps = int(1.0 / stepper.dt)
        kept = run_states(stepper, u0, 0.0, n_steps)
        expected = reference_trajectory(stepper, 0.1, u0, 0.0, n_steps)
        assert all(close(got, ref, 1e-11) for got, ref in zip(kept, expected))
        # derived before the switch, across it (t < 0.5 <= t + dt) and after
        assert len(calls) == 6

    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_constant_signals_are_derived_once(self, kind):
        forcing = WALLS[kind](0.02, lambda t: 0.01, p=1, right=(-0.01, 0.0))
        stepper, u0 = self.stepper(kind, forcing)
        calls = self.count_data_calls(stepper)
        out = stepper.run(u0, 0.0, 40)
        assert len(calls) == 2   # g(t) and g(t + dt) of the first step
        assert close(out, reference_trajectory(stepper, 0.1, u0, 0.0, 40)[-1], 1e-11)
        # pinned samples that start off their data make the first step's
        # terms their own, so the second step derives them once more
        u0[stepper.pinned] += 0.5
        calls.clear()
        stepper.run(u0, 0.0, 40)
        assert len(calls) == (4 if kind == "even" else 2)

    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_end_signals_are_reused_bit_for_bit(self, kind):
        # with dt = 1/64 each step starts at exactly the last one's end
        # time, so k steps read the signals k + 1 times, not 2k; the run
        # is the same, byte for byte, as steps that read them afresh
        times = []

        def alpha(t):
            times.append(t)
            return 0.02 * np.cos(0.3 * t)

        params = make_params(r=0.1, gamma=1.0, p=1, n_elements=2, m_samples=32)
        grid = lattice_field(conjugate_state(0.0, np.full(2, 0.05 + 0.03j)), params,
                             periodic=False)
        stepper = BoundedStepper(grid, params, WALLS[kind](alpha, 0.01, p=1), 1 / 64)
        out = stepper.run(grid.u, 0.0, 64)
        assert len(times) == 65
        stepper.walls, stepper._wall_key = tuple(grid.u[stepper.pinned].tolist()), None
        v = stepper.to_spectral(grid.u)
        for i in range(64):
            stepper._end = (None, None)
            v = stepper.step(v, i / 64)
        assert len(times) == 65 + 128
        assert stepper.to_physical(v).tobytes() == out.tobytes()

    @pytest.mark.parametrize("kind", ["even", "odd"])
    @pytest.mark.parametrize("m, t0", [(16, 0.0), (64, 0.3)])
    def test_end_signals_are_reused_at_the_default_step(self, kind, m, t0):
        # the run's clock accumulates t += dt, so each step starts at
        # exactly the last one's end time at any dt: 1000 steps read the
        # signals 1001 times (a clock of t0 + i dt read them 1306-1329 times)
        times = []

        def alpha(t):
            times.append(t)
            return 0.02 * np.cos(0.3 * t)

        params = make_params(r=0.1, gamma=1.0, p=1, n_elements=2, m_samples=m)
        grid = lattice_field(conjugate_state(0.0, np.full(2, 0.05 + 0.03j)), params,
                             periodic=False)
        stepper = BoundedStepper(grid, params, WALLS[kind](alpha, 0.01, p=1),
                                 _default_dt(grid))
        stepper.run(grid.u, t0, 1000)
        assert times == list(accumulate(repeat(stepper.dt, 1000), initial=t0))

    def test_signed_zero_signal_reaches_the_pinned_samples(self):
        # 0.0 == -0.0, but the pinned wall sample takes the sign of the zero
        forcing = BoundaryForcing.even_given(lambda t: 0.0 if t < 0.5 else -0.0, p=2)
        params = make_params(r=0.1, gamma=1.0, p=2, n_elements=2, m_samples=32)
        grid = FieldGrid.zeros(params, periodic=False)
        stepper = BoundedStepper(grid, params, forcing, 0.4 * grid.dx ** 2)
        n_steps = int(1.0 / stepper.dt)
        out = stepper.run(grid.u, 0.0, n_steps)
        assert np.signbit(out[stepper.pinned]).all()
        assert not out.any()


class TestOperatorAssembly:
    """The stepper's symbol and wall sources against a dense operator
    assembled from the PDE stencil and the ghost rules alone."""

    @pytest.mark.parametrize("kind", ["even", "odd"])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("n", [7, 8, 33, 129])
    def test_matches_dense_ghost_elimination(self, kind, p, n):
        r = 0.3 if p == 1 else -0.2
        params = make_params(r=r, gamma=1.0, p=p, n_elements=2, m_samples=16)
        grid = FieldGrid(0.0, 2.0 * np.pi * 3 / (n - 1), np.zeros(n), False)
        forcing = WALLS[kind](lambda t: 0.03 * np.cos(0.7 * t), lambda t: 0.05 + t, p=p,
                              right=(lambda t: -0.01 * t, lambda t: 0.02 * np.sin(1.3 * t)))
        stepper = BoundedStepper(grid, params, forcing, 0.4 * grid.dx ** 2)
        dt, length, parity = stepper.dt, 2 * (n - 1), params.parity_factor
        m = 1.0 - dt / 2.0 * stepper.symbol
        u = np.random.default_rng(n).standard_normal(n)
        A, _, pinned, _ = dense_operator(stepper, r, parity, 0.0)
        assert stepper.pinned == pinned
        rows = np.setdiff1d(np.arange(n), pinned)
        # A on the rows that evolve, from the symbol on the mirrored grid
        interior = u.copy()
        interior[pinned] = 0.0
        applied = np.fft.irfft(stepper.symbol * stepper.to_spectral(u), length)
        assert close(applied[rows], (A @ interior)[rows])
        for t in (0.0, 0.7):
            # a step's wall source: g at t and t + dt, and A's coupling to
            # the pinned samples it starts from and to their data at t + dt
            _, g0, _, _ = dense_operator(stepper, r, parity, t)
            _, g1, _, walls = dense_operator(stepper, r, parity, t + dt)
            stepper.walls = tuple(u[pinned])
            edges = np.zeros(n)
            edges[pinned] = u[pinned] + np.array(walls)
            source = np.fft.irfft(stepper._wall_terms(t) * m, length)
            assert close(source[rows], (dt / 2.0 * (A @ edges + g0 + g1))[rows])
            assert list(stepper.walls) == walls

    def test_pinned_samples_are_zero_rows(self):
        params = params_for(n=2, m=16)
        grid = FieldGrid.zeros(params, periodic=False)
        stepper = BoundedStepper(grid, params, BoundaryForcing.even_given(0.1, 0.2, p=1),
                                 0.4 * grid.dx ** 2)
        n = len(grid.u)
        assert stepper.pinned == [0, n - 1]
        # the mirror holds zeros at the pinned samples, whatever the field
        # has there, and A keeps them zero: the odd parity is preserved
        u = np.random.default_rng(1).standard_normal(n)
        moved = u.copy()
        moved[stepper.pinned] += 1.0
        v = stepper.to_spectral(u)
        assert np.array_equal(stepper.to_spectral(moved), v)
        applied = np.fft.irfft(stepper.symbol * v, 2 * (n - 1))
        assert np.abs(applied[stepper.pinned]).max() <= 1e-12 * np.abs(applied).max()

    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_wall_parity_comes_from_params(self, kind):
        # both walls sit h/2 from an element centre, so both carry (-1)^p
        # of the parameters; a forcing built for another p is rejected
        params = params_for(p=2, n=2, m=16)
        grid = FieldGrid.zeros(params, periodic=False)
        dt = 0.4 * grid.dx ** 2
        make = WALLS[kind]
        with pytest.raises(ValueError, match=r"wall parity factors must both be \(-1\)\^p = 1"):
            BoundedStepper(grid, params, make(0.1, p=1), dt)
        with pytest.raises(ValueError, match="parity"):
            integrate_bounded(grid, params, make(0.1, p=1), 10 * dt, dt)
        # any p of the same parity is accepted: p = 2 and p = 4 both give +1
        BoundedStepper(grid, params, make(0.1, p=4, right=(0.2, 0.0)), dt)


@functools.lru_cache(maxsize=None)
def forced_wall_a1(kind):
    """a_1 at t = 300 from zero under constant forcing alpha = 0.003 (r = 0,
    N = 8, p = 1, m = 32): the model at dt 0.05 and the bounded oracle at
    0.4 dx^2, about 1 s each."""
    params = params_for(r=0.0, n=8, m=32)
    forcing = WALLS[kind](0.003, 0.0, p=1)
    zero = conjugate_state(0.0, np.zeros(8, complex))
    model = run_model(zero, params, forcing, 300.0, 0.05).final.a[0]
    return complex(model), complex(oracle_amplitudes(zero, params, forcing, 300.0)[-1, 0])


# The closed form, the model and the oracle at r = 0, N = 8, t = 300, from
# zero.  Oracle Re a_1 at alpha = 0.003 moves to +0.00106 (m = 64) and
# +0.00109 (m = 128).  At m = 64 and signal 0.003 the model's fast
# component answers alpha + beta, the oracle's alpha and beta apart:
FAST_COMPONENT = """
forcing      closed-form Re a_1   model a_1                  oracle a_1 (m=32)
alpha=0.1    -0.0785              -0.0530 + 0.1431i          +0.0238 + 0.1451i
alpha=0.003  -0.00236             -0.00234 + 0.01584i        +0.00095 + 0.01587i
walls p  model (alpha or beta)  oracle alpha  oracle beta
even  1  -0.00234               +0.00106      -0.00043
even  2  -0.00422               +0.00068      -0.00068
odd   1  -0.00202               -0.00221      -0.00092
odd   2  -0.00398               -0.00202      -0.00073
"""


class TestForcedWallsAgainstModel:
    """A forced wall pumps the slow component of a_1 (Im a_1 for even wall
    data, Re a_1 for odd), and the oracle confirms it; the fast component
    it does not."""

    @pytest.mark.parametrize("kind, part", [("even", "imag"), ("odd", "real")])
    def test_pumped_component_matches_the_oracle(self, kind, part):
        # measured: Im a_1 0.0158429 (model) against 0.0158724 (oracle),
        # Re a_1 0.0323325 against 0.0323603
        model, oracle = (getattr(v, part) for v in forced_wall_a1(kind))
        assert abs(oracle) > 0.01
        assert model == pytest.approx(oracle, rel=0.01)

    @pytest.mark.xfail(strict=True, reason=(
        "the model's fast component of a_1 under even-wall forcing has the "
        "wrong sign against the PDE, even in the linear regime (model "
        "-0.00234, oracle +0.00095 at alpha = 0.003):" + FAST_COMPONENT))
    def test_even_wall_fast_component_matches_the_oracle(self):
        model, oracle = (v.real for v in forced_wall_a1("even"))
        assert model == pytest.approx(oracle, rel=0.1)
