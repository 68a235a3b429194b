import numpy as np
import pytest

from shlattice import (
    BoundaryForcing,
    CompareConfig,
    SignChoice,
    analysis,
    boundary_equilibrium,
    boundary_mode_rates,
    compare_model_vs_direct,
    conjugate_state,
    lattice_dispersion,
    longwave_quadratic_coefficient,
    make_params,
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


class TestBoundaryModeRates:
    def test_frozen_values(self):
        params = params_for(r=0.0)
        fast, slow = boundary_mode_rates(params, SignChoice.UPPER)
        assert fast == pytest.approx(-2 / np.pi ** 2, rel=1e-12)
        assert slow == 0.0

    def test_slow_rate_is_r(self):
        params = params_for(r=0.1)
        _, slow = boundary_mode_rates(params, SignChoice.LOWER)
        assert slow == pytest.approx(0.1)

    def test_gap_quarters_when_h_doubles(self):
        p1 = params_for(r=0.0, p=1)
        p2 = params_for(r=0.0, p=2)
        gap1 = p1.r - boundary_mode_rates(p1, SignChoice.UPPER)[0]
        gap2 = p2.r - boundary_mode_rates(p2, SignChoice.UPPER)[0]
        assert gap1 / gap2 == pytest.approx(4.0, rel=1e-12)

    def test_ordering(self):
        params = params_for(r=0.3, p=3)
        fast, slow = boundary_mode_rates(params, SignChoice.UPPER)
        assert fast < slow


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

    @pytest.mark.parametrize("ladder", [(), (0.1,), (0.1, 0.1), [0.05, 0.05, 0.05]])
    def test_ladder_needs_two_distinct_rungs(self, monkeypatch, ladder):
        def no_run(*args, **kwargs):
            raise AssertionError("a rung ran")
        monkeypatch.setattr(analysis, "_run_pair", no_run)
        cfg = CompareConfig(params=params_for(r=0.1, n=4), r_ladder=ladder)
        with pytest.raises(ValueError, match="at least two distinct rungs"):
            compare_model_vs_direct(cfg)
