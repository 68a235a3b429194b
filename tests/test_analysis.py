from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shlattice import (
    BoundaryForcing,
    BoundedStepper,
    CompareConfig,
    FieldGrid,
    SignChoice,
    SpectralStepper,
    analysis,
    boundary_equilibrium,
    boundary_mode_rates,
    compare_model_vs_direct,
    conjugate_state,
    extract_amplitudes,
    integrate_bounded,
    lattice_dispersion,
    lattice_field,
    longwave_quadratic_coefficient,
    make_params,
    model_rhs,
    run_model,
    she_growth_rate,
)


def params_for(r=0.0, gamma=1.0, p=1, n=8, m=32):
    return make_params(r=r, gamma=gamma, p=p, n_elements=n, m_samples=m)


class TestSheGrowthRate:
    @pytest.mark.parametrize("k,r,expect", [
        (1.0, 0.1, 0.1),
        (0.0, 0.0, -1.0),
        (1.2, 0.1, 0.1 - (1 - 1.44) ** 2),
    ])
    def test_values(self, k, r, expect):
        assert she_growth_rate(k, r) == pytest.approx(expect, rel=1e-12)

    def test_even_in_k(self):
        for k in (0.3, 0.9, 1.7):
            assert she_growth_rate(k, 0.05) == she_growth_rate(-k, 0.05)


class TestLatticeDispersion:
    def test_uniform_mode(self):
        params = params_for(r=0.07)
        assert lattice_dispersion(0.0, params) == pytest.approx(0.07)

    def test_zone_edge(self):
        params = params_for(r=0.0)
        kappa = np.pi / params.h
        assert lattice_dispersion(kappa, params) == pytest.approx(
            -16 / params.h ** 2, rel=1e-12)

    def test_periodic_and_maximal_at_zero(self):
        params = params_for(r=0.02)
        kappas = np.linspace(-2.0, 2.0, 101)
        vals = lattice_dispersion(kappas, params)
        assert np.max(vals) <= lattice_dispersion(0.0, params) + 1e-15
        shifted = lattice_dispersion(kappas + 2 * np.pi / params.h, params)
        assert np.max(np.abs(vals - shifted)) < 1e-12

    def test_longwave_limit_is_gle(self):
        # quartic remainder of (dispersion - (r - 4 kappa^2)) stays bounded
        params = params_for(r=0.0)
        for kh in (0.2, 0.1, 0.05):
            kappa = kh / params.h
            gap = lattice_dispersion(kappa, params) - (params.r - 4 * kappa ** 2)
            assert abs(gap) <= 0.4 * (kh ** 2) * (kappa ** 2) * 4.0
        coef = longwave_quadratic_coefficient(params)
        assert coef == pytest.approx(-4.0, abs=0.05)

    @pytest.mark.parametrize("r", [0.1, -0.05])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("gamma", [0.3, 0.7, 1.0])
    def test_matches_model_rhs_on_bloch_modes(self, gamma, p, r):
        # the closed form against the model: model_rhs on a_j = e exp(i kappa
        # j h), b = conj(a), is (lambda e - 3 g^2 e^3) a_j / e at every j, so
        # criterion 7's Richardson elimination L = (8 f(e) - f(2e)) / (6 e)
        # leaves lambda, at each kappa = 2 pi m / (N h) of a periodic lattice
        n = 8
        params = params_for(r=r, gamma=gamma, p=p, n=n)
        periodic = BoundaryForcing.periodic()
        for m in range(n):
            kappa = 2.0 * np.pi * m / (n * params.h)
            mode = np.exp(1j * kappa * params.h * np.arange(n))

            def f(eps):
                return model_rhs(conjugate_state(0.0, eps * mode), params, periodic)[0] / mode

            rate = (8.0 * f(1e-2) - f(2e-2)) / 6e-2
            assert np.max(np.abs(rate - lattice_dispersion(kappa, params))) <= 1e-12


class TestBoundaryModeRates:
    def test_frozen_values(self):
        params = params_for(r=0.0)
        fast, slow = boundary_mode_rates(params)
        assert fast == pytest.approx(-2 / np.pi ** 2, rel=1e-12)
        assert slow == 0.0

    def test_slow_rate_is_r(self):
        params = params_for(r=0.1)
        _, slow = boundary_mode_rates(params)
        assert slow == pytest.approx(0.1)

    def test_gap_quarters_when_h_doubles(self):
        p1 = params_for(r=0.0, p=1)
        p2 = params_for(r=0.0, p=2)
        gap1 = p1.r - boundary_mode_rates(p1)[0]
        gap2 = p2.r - boundary_mode_rates(p2)[0]
        assert gap1 / gap2 == pytest.approx(4.0, rel=1e-12)

    def test_ordering(self):
        params = params_for(r=0.3, p=3)
        fast, slow = boundary_mode_rates(params)
        assert fast < slow

    @pytest.mark.parametrize("r, gamma, p", [
        (0.0, 1.0, 1), (0.02, 0.5, 1), (-0.05, 0.3, 2), (0.1, 0.0, 1)])
    def test_match_linearised_wall_rows(self, r, gamma, p):
        # criterion 7 at any coupling: the wall row of model_rhs, linearised
        # by Richardson elimination of the cubic, L = (8 f(e) - f(2e)) / (6 e)
        params = make_params(r=r, gamma=gamma, p=p, n_elements=2, m_samples=32)
        fast, slow = boundary_mode_rates(params)
        assert fast == pytest.approx(r - 8.0 * gamma ** 2 / params.h ** 2, rel=1e-15)

        def rate(sign, direction):
            forcing = sign.wall(p=p)

            def f(eps):
                st = conjugate_state(0.0, np.full(2, eps * direction, complex))
                return model_rhs(st, params, forcing)[0][0]

            return (8.0 * f(1e-2) - f(2e-2)) / 6e-2 / direction

        # even data: Re(a_1) decays at the fast rate; odd data swaps the parts
        for sign, re_rate, im_rate in ((SignChoice.UPPER, fast, slow),
                                       (SignChoice.LOWER, slow, fast)):
            assert rate(sign, 1.0).real == pytest.approx(re_rate, abs=1e-12)
            assert rate(sign, 1.0j).real == pytest.approx(im_rate, abs=1e-12)


class TestBoundaryEquilibrium:
    def test_printed_value(self):
        params = params_for(r=0.0)
        assert boundary_equilibrium(params, 0.06, 0.04) == pytest.approx(
            -2 * np.pi * 0.1 / 8, rel=1e-12)

    def test_zero_forcing(self):
        assert boundary_equilibrium(params_for(), 0.0, 0.0) == 0.0

    def test_model_approaches_prediction_for_weak_forcing(self):
        # the closed form neglects the cubic; it is approached as the
        # forcing amplitude (and with it the pumped sin amplitude) shrinks
        params = params_for(r=0.0, n=8)
        rel_errs = []
        for f in (0.03, 0.003):
            forcing = BoundaryForcing.even_given(alpha=f, beta=0.0, p=1)
            state = conjugate_state(0.0, np.zeros(8, complex))
            traj = run_model(state, params, forcing, t_end=400.0, dt=0.1,
                             sample_stride=50)
            re1 = traj.a[:, 0].real
            measured = re1[np.argmax(np.abs(re1))]
            predicted = boundary_equilibrium(params, f, 0.0)
            rel_errs.append(abs(measured - predicted) / abs(predicted))
        assert rel_errs[0] < 0.20
        assert rel_errs[1] < 0.02


class TestCompare:
    def test_zero_state_zero_error(self):
        params = params_for(r=0.02, n=4, m=32)
        cfg = CompareConfig(params=params, a0=np.zeros(4, complex), t_end=5.0,
                            n_samples=5)
        report = compare_model_vs_direct(cfg)
        assert np.max(report.sup_error) == 0.0

    def test_neutral_identity_at_gamma_zero(self):
        # gamma = 0, r = 0, tiny uniform amplitude: both systems are neutral
        params = make_params(r=0.0, gamma=0.0, p=1, n_elements=8, m_samples=32)
        a0 = np.full(8, 1e-4 + 0j)
        cfg = CompareConfig(params=params, a0=a0, t_end=50.0, n_samples=10)
        report = compare_model_vs_direct(cfg)
        assert np.max(report.sup_error) <= 1e-8

    def test_equilibrium_tracking(self):
        # uniform 0.9 sqrt(r/3) start: both settle on sqrt(r/3); the gap stays
        # below a tenth of the pattern scale throughout t in [0, 10/r]
        r = 0.02
        params = params_for(r=r, n=16, m=32)
        scale = np.sqrt(r / 3)
        a0 = np.full(16, 0.9 * scale, complex)
        cfg = CompareConfig(params=params, a0=a0, t_end=10 / r, n_samples=25)
        report = compare_model_vs_direct(cfg)
        assert np.max(report.sup_error) < 0.1 * scale
        assert abs(abs(report.model_amplitudes[-1, 0]) - scale) < 1e-3
        assert abs(abs(report.oracle_amplitudes[-1, 0]) - scale) < 1e-3
        assert report.metadata["validity_flag"] is False

    def test_validity_flag_fires(self):
        params = params_for(r=0.01, n=4, m=32)
        a0 = np.full(4, 10 * np.sqrt(0.01), complex)   # far outside A ~ sqrt(r)
        cfg = CompareConfig(params=params, a0=a0, t_end=0.5, n_samples=4)
        report = compare_model_vs_direct(cfg)
        assert report.metadata["validity_flag"] is True

    def test_default_oracle_step_is_accurate_enough(self):
        # a strongly modulated run to 10/r: the oracle at CompareConfig's
        # derived step, here the cap 1.0 in whole steps per sample, stays
        # within 1e-3 sqrt(r/3) of the same run at a quarter of that step,
        # so the reference stays finer than the model error it measures;
        # the model's trajectory does not depend on it
        r = 0.1
        params = params_for(r=r, n=8, m=32)
        cfg = CompareConfig(params=params, modulation=1.0)
        coarse = compare_model_vs_direct(cfg)
        assert coarse.metadata["dt_oracle"] == 100.0 / 120
        fine = compare_model_vs_direct(replace(cfg, dt_oracle=1.0 / 4))
        gap = np.max(np.abs(coarse.oracle_amplitudes - fine.oracle_amplitudes), axis=1)
        assert np.all(gap <= 1e-3 * np.sqrt(r / 3))
        assert np.array_equal(coarse.model_amplitudes, fine.model_amplitudes)

    @pytest.mark.parametrize("r, modulation", [(10.0, 0.2), (10.0, 1.0), (1.0, 1.0)])
    def test_oracle_step_counts_the_cubic(self, r, modulation):
        # the derived oracle step is min(1, 2.45 / 3 U^2) with U = 2 max(max|a0|,
        # sqrt(r/3)), less in whole steps per sample: at r = 10 a step of 1.0
        # diverged at step 2, and the derived one stays within 1e-3 of its peak
        # of a run at a quarter of it
        cfg = CompareConfig(params=params_for(r=r, n=8, m=32), t_end=20.0, n_samples=4,
                            modulation=modulation)
        report = compare_model_vs_direct(cfg)
        derived = 2.45 / (12.0 * (np.sqrt(r / 3) * (1 + abs(modulation))) ** 2)
        assert 0.95 * derived < report.metadata["dt_oracle"] <= derived
        fine = compare_model_vs_direct(replace(cfg, dt_oracle=report.metadata["dt_oracle"] / 4))
        gap = np.max(np.abs(report.oracle_amplitudes - fine.oracle_amplitudes))
        assert gap <= 1e-3 * np.max(np.abs(fine.oracle_amplitudes))

    def test_default_model_step_is_accurate_enough(self):
        # the same run: the model at CompareConfig's derived step, 0.925
        # here, in whole steps per sample, stays within 1e-3 sqrt(r/3) of
        # the model at a step of 0.1; the oracle's trajectory does not
        # depend on it
        r = 0.1
        params = params_for(r=r, n=8, m=32)
        cfg = CompareConfig(params=params, modulation=1.0)
        derived = compare_model_vs_direct(cfg)
        fixed = compare_model_vs_direct(replace(cfg, dt_model=0.1))
        assert derived.metadata["dt_model"] == 100.0 / 120
        assert fixed.metadata["dt_model"] == 0.1
        gap = np.max(np.abs(derived.model_amplitudes - fixed.model_amplitudes), axis=1)
        assert np.all(gap <= 1e-3 * np.sqrt(r / 3))
        assert np.array_equal(derived.oracle_amplitudes, fixed.oracle_amplitudes)

    @pytest.mark.parametrize("kwargs, message", [
        ({"dt_model": -0.1}, "dt must be positive, got -0.1"),
        ({"dt_oracle": -0.1}, "dt must be positive, got -0.1"),
        ({"n_samples": 2.5}, "n_samples must be a whole number >= 1, got 2.5"),
        ({"n_samples": 0}, "n_samples must be a whole number >= 1, got 0"),
    ])
    def test_bad_step_or_sample_count_is_named(self, kwargs, message):
        cfg = CompareConfig(params=params_for(r=0.1, n=4), t_end=1.0, **kwargs)
        with pytest.raises(ValueError, match=f"^{message}$"):
            compare_model_vs_direct(cfg)

    @pytest.mark.parametrize("ladder", [(), (0.1,), (0.1, 0.1), [0.05, 0.05, 0.05]])
    def test_ladder_needs_two_distinct_rungs(self, monkeypatch, ladder):
        def no_run(*args, **kwargs):
            raise AssertionError("a rung ran")
        monkeypatch.setattr(analysis, "_run_pair", no_run)
        cfg = CompareConfig(params=params_for(r=0.1, n=4), r_ladder=ladder)
        with pytest.raises(ValueError, match="at least two distinct rungs"):
            compare_model_vs_direct(cfg)

    def _horizons(self, monkeypatch, **kwargs):
        """The horizon of each run compare_model_vs_direct starts, with the
        runs themselves stubbed out."""
        horizons = []

        def stub(params, a0, t_end, *args):
            horizons.append(t_end)
            return analysis.ComparisonReport(np.zeros(1), None, None, np.array([1e-3]),
                                             metadata={"dt_model": 0.1, "dt_oracle": 1.0})
        monkeypatch.setattr(analysis, "_run_pair", stub)
        compare_model_vs_direct(CompareConfig(params=params_for(r=0.1, n=4), **kwargs))
        return horizons

    def test_horizon_is_ten_over_r_unless_given(self, monkeypatch):
        assert self._horizons(monkeypatch) == [10.0 / 0.1]
        assert self._horizons(monkeypatch, r_ladder=(0.2, 0.1)) == [10.0 / 0.2, 10.0 / 0.1]
        assert self._horizons(monkeypatch, t_end=5.0) == [5.0]
        assert self._horizons(monkeypatch, r_ladder=(0.2, 0.1), t_end=5.0) == [5.0, 5.0]

    @pytest.mark.parametrize("kwargs", [{"r_ladder": (0.1, 0.0)},
                                        {"r_ladder": (0.1, -0.2), "t_end": 5.0},
                                        {"params": params_for(r=0.0, n=4)}])
    def test_every_rung_needs_r_positive_before_any_runs(self, monkeypatch, kwargs):
        def no_run(*args, **kw):
            raise AssertionError("a rung ran")
        monkeypatch.setattr(analysis, "_run_pair", no_run)
        cfg = CompareConfig(**{"params": params_for(r=0.1, n=4), **kwargs})
        with pytest.raises(ValueError, match="the horizon 10/r needs r > 0"):
            compare_model_vs_direct(cfg)

    def test_ladder_takes_no_a0(self):
        cfg = CompareConfig(params=params_for(r=0.1, n=4), a0=np.zeros(4, complex),
                            r_ladder=(0.2, 0.1))
        with pytest.raises(ValueError, match="takes no a0"):
            compare_model_vs_direct(cfg)


class TestKnownModelError:
    """The model keeps only the fundamental roll, whose amplitude on the
    Swift-Hohenberg roll cos x - (A^3/256) cos 3x is sqrt(r/3)(1 + r/384 +
    O(r^2)), while the model settles on sqrt(r/3): once a compare run has
    relaxed, Re(oracle - model) is sqrt(r/3) r/384 on every element."""

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(r=st.floats(0.01, 0.3), n=st.integers(2, 12), modulation=st.floats(-1.0, 1.0))
    def test_relaxed_real_error_is_r_over_384(self, r, n, modulation):
        # at compare's default steps, to max(10/r, 30 / the slowest lattice
        # rate): the amplitude's 2r, or the longest phase wave's
        # c (2 - 2 cos(2 pi/N)), c = 4/h^2.  The tolerance, set before any
        # draw ran: 2e-3 + 0.03 r, the O(r^2) term (-0.017 r measured at r
        # = 0.29) with room, plus 2e-3 for the rest.  The imaginary part,
        # a phase the oracle's rolls settle at, is not gated.
        params = params_for(r=r, n=n, m=32)
        slowest = min(2.0 * r, 4.0 / params.h ** 2 * (2.0 - 2.0 * np.cos(2.0 * np.pi / n)))
        cfg = CompareConfig(params=params, modulation=modulation,
                            t_end=max(10.0 / r, 30.0 / slowest))
        report = compare_model_vs_direct(cfg)
        error = (report.oracle_amplitudes[-1] - report.model_amplitudes[-1]).real
        assert np.max(np.abs(np.abs(error) / (np.sqrt(r / 3) * r / 384) - 1)) <= 2e-3 + 0.03 * r


class TestOracleAmplitudes:
    """One entry seeds, steps and samples either oracle; each row is the
    amplitude sequence a hand-built lattice_field -> stepper -> extract
    run gives, byte for byte."""

    @staticmethod
    def state(n, t=0.0):
        rng = np.random.default_rng(n)
        return conjugate_state(t, 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))

    def test_periodic_rows_are_the_spectral_run(self):
        params = params_for(r=0.1, n=4, m=16)
        state = self.state(4)
        got = analysis.oracle_amplitudes(state, params, BoundaryForcing.periodic(), 1.0,
                                         n_samples=4, dt=0.05)
        grid = lattice_field(state, params, periodic=True)
        stepper = SpectralStepper(len(grid.u), grid.length, params.r, 1.0 / 20)
        fields = [grid.u]
        stepper.run(stepper.to_spectral(grid.u), 20,
                    callback=lambda i, v, t: fields.append(stepper.to_physical(v)))
        rows = [extract_amplitudes(FieldGrid(grid.x0, grid.dx, u, True), params).a
                for u in fields[::5]]
        assert got.shape == (5, 4) and got.tobytes() == np.array(rows).tobytes()
        # the oracle's own step is 0.05 on a periodic domain
        assert analysis.oracle_amplitudes(state, params, BoundaryForcing.periodic(), 1.0,
                                          n_samples=4).tobytes() == got.tobytes()

    def test_compare_reads_its_oracle_from_the_entry(self):
        params = params_for(r=0.1, n=4, m=16)
        a0 = self.state(4).a
        report = compare_model_vs_direct(CompareConfig(params=params, a0=a0, t_end=2.0,
                                                       n_samples=4, dt_oracle=0.1))
        got = analysis.oracle_amplitudes(conjugate_state(0.0, a0), params,
                                         BoundaryForcing.periodic(), 2.0, 4, 0.1)
        assert report.oracle_amplitudes.tobytes() == got.tobytes()
        assert set(report.metadata) == {"validity_flag", "dt_model", "dt_oracle"}
        assert report.metadata["dt_oracle"] == 0.1

    @pytest.mark.parametrize("make", [BoundaryForcing.even_given, BoundaryForcing.odd_given])
    def test_bounded_rows_are_the_bounded_run(self, make):
        # from t = 0.25 with a time-varying wall: 3 samples of 100 steps of
        # 0.001, whose last row is integrate_bounded's field over the same span
        params = params_for(r=0.1, n=2, m=16)
        state = self.state(2, t=0.25)
        forcing = make(lambda t: 0.02 * np.cos(3.0 * t), 0.01, p=1)
        got = analysis.oracle_amplitudes(state, params, forcing, 0.55, n_samples=3, dt=0.001)
        grid = lattice_field(state, params, periodic=False)
        stepper = BoundedStepper(grid, params, forcing, (0.55 - 0.25) / 300)
        fields = [grid.u]
        stepper.run(grid.u, 0.25, 300,
                    callback=lambda i, v, t: fields.append(stepper.to_physical(v)))
        rows = [extract_amplitudes(FieldGrid(grid.x0, grid.dx, u, False), params).a
                for u in fields[::100]]
        assert got.tobytes() == np.array(rows).tobytes()
        end = integrate_bounded(grid, params, forcing, 0.55, 0.001, t0=0.25)
        assert got[-1].tobytes() == extract_amplitudes(end, params).a.tobytes()

    def test_one_sample_is_the_bounded_oracle_at_its_own_step(self):
        params = params_for(r=0.05, n=2, m=16)
        state = self.state(2)
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        got = analysis.oracle_amplitudes(state, params, forcing, 1.0)
        grid = lattice_field(state, params, periodic=False)
        end = integrate_bounded(grid, params, forcing, 1.0, 0.4 * grid.dx ** 2)
        assert got.shape == (2, 2)
        assert got[0].tobytes() == extract_amplitudes(grid, params).a.tobytes()
        assert got[1].tobytes() == extract_amplitudes(end, params).a.tobytes()

    def test_needs_a_sample(self):
        params = params_for(r=0.1, n=2, m=16)
        for n_samples in (0, 2.5, float("nan")):
            with pytest.raises(ValueError, match="n_samples must be a whole number >= 1"):
                analysis.oracle_amplitudes(self.state(2), params, BoundaryForcing.periodic(),
                                           1.0, n_samples=n_samples)
        # a sampled run's error names the step given, not dt * n_samples
        with pytest.raises(ValueError, match=r"^dt must be positive, got -0.1$"):
            analysis.oracle_amplitudes(self.state(2), params, BoundaryForcing.periodic(),
                                       1.0, n_samples=40, dt=-0.1)
