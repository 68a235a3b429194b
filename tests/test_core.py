import warnings

import numpy as np
import pytest

from shlattice import (
    AmplitudeState,
    BoundaryForcing,
    DivergenceError,
    FieldGrid,
    ForcingKind,
    element_centers,
    make_params,
    mean_difference,
    second_difference,
)
from shlattice.core import _integrate, _step_count


class TestMakeParams:
    def test_h_is_two_pi_p(self):
        params = make_params(r=0.0, gamma=1.0, p=1, n_elements=8, m_samples=32)
        assert params.h == pytest.approx(2 * np.pi, rel=1e-15)
        params = make_params(r=0.1, gamma=1.0, p=2, n_elements=4, m_samples=64)
        assert params.h == pytest.approx(4 * np.pi, rel=1e-15)

    def test_parity_factor(self):
        assert make_params(0, 1, 1, 4, 32).parity_factor == -1.0
        assert make_params(0, 1, 2, 4, 32).parity_factor == 1.0

    @pytest.mark.parametrize("gamma", [1.5, -0.1])
    def test_gamma_range_rejected(self, gamma):
        with pytest.raises(ValueError):
            make_params(r=0.0, gamma=gamma, p=1, n_elements=8, m_samples=32)

    @pytest.mark.parametrize("m", [48, 8, 17])
    def test_bad_m_samples_rejected(self, m):
        with pytest.raises(ValueError):
            make_params(r=0.0, gamma=1.0, p=1, n_elements=8, m_samples=m)

    def test_small_lattice_rejected(self):
        with pytest.raises(ValueError):
            make_params(r=0.0, gamma=1.0, p=1, n_elements=1, m_samples=32)
        with pytest.raises(ValueError):
            make_params(r=0.0, gamma=1.0, p=0, n_elements=4, m_samples=32)

    def test_element_centers_canonical(self):
        params = make_params(0.0, 1.0, 1, 4, 32)
        xs = element_centers(params)
        # wall at -h/2, centres at multiples of h
        assert np.allclose(xs, [0, 1, 2, 3] * np.full(4, params.h))


class TestStencils:
    @pytest.mark.parametrize("v,expect", [
        ([1, 1, 1], 0.0),
        ([0, 0, 1], 1.0),
        ([1, 2, 4], 1.0),
    ])
    def test_second_difference_values(self, v, expect):
        assert second_difference(np.array(v, complex), 1) == pytest.approx(expect)

    @pytest.mark.parametrize("v,expect", [
        ([1, 1, 1], 0.0),
        ([0, 0, 1], 0.5),
        ([1, 2, 4], 1.5),
    ])
    def test_mean_difference_values(self, v, expect):
        assert mean_difference(np.array(v, complex), 1) == pytest.approx(expect)

    def test_edge_index_rejected_without_wrap(self):
        v = np.arange(5, dtype=complex)
        for j in (0, 4):
            with pytest.raises(IndexError):
                second_difference(v, j)
            with pytest.raises(IndexError):
                mean_difference(v, j)

    def test_periodic_wrap(self):
        v = np.array([1.0, 2.0, 4.0], dtype=complex)
        assert second_difference(v, 0, periodic=True) == pytest.approx(2 + 4 - 2)
        assert mean_difference(v, 2, periodic=True) == pytest.approx((1 - 2) / 2)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            c1 = complex(rng.standard_normal(), rng.standard_normal())
            c2 = complex(rng.standard_normal(), rng.standard_normal())
            for op in (second_difference, mean_difference):
                lhs = op(c1 * u + c2 * v, 4)
                rhs = c1 * op(u, 4) + c2 * op(v, 4)
                assert abs(lhs - rhs) < 1e-14

    def test_lattice_mode_symbols(self):
        # on v_j = exp(i kappa j h): d2/v = 2 cos(kappa h) - 2, md/v = i sin(kappa h)
        rng = np.random.default_rng(5)
        h = 2 * np.pi
        for kappa in rng.uniform(0.02, 0.45, size=6):
            j = np.arange(12)
            v = np.exp(1j * kappa * j * h)
            d2 = second_difference(v, 6) / v[6]
            md = mean_difference(v, 6) / v[6]
            assert abs(d2 - (2 * np.cos(kappa * h) - 2)) < 1e-12
            assert abs(md - 1j * np.sin(kappa * h)) < 1e-12


class TestStateAndGrid:
    def test_state_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AmplitudeState(0.0, np.zeros(3, complex), np.zeros(4, complex))

    def test_grid_alignment(self):
        params = make_params(0.0, 1.0, 1, 4, 32)
        gp = FieldGrid.zeros(params, periodic=True)
        gb = FieldGrid.zeros(params, periodic=False)
        assert len(gp.u) == 4 * 32
        assert len(gb.u) == 4 * 32 + 1
        assert gp.dx == pytest.approx(params.h / 32)
        assert gp.x0 == pytest.approx(-params.h / 2)
        assert gp.length == pytest.approx(4 * params.h)
        assert gb.length == pytest.approx(4 * params.h)

    def test_periodic_wrap_coordinates(self):
        params = make_params(0.0, 1.0, 1, 2, 16)
        grid = FieldGrid.zeros(params, periodic=True)
        # last sample sits one dx short of the wrap point x0 + N h
        assert grid.x[-1] == pytest.approx(-params.h / 2 + 2 * params.h - grid.dx)


class TestBoundaryForcing:
    def test_periodic_carries_no_signals(self):
        f = BoundaryForcing.periodic()
        assert f.alpha is None and f.beta is None
        with pytest.raises(ValueError):
            BoundaryForcing(kind=ForcingKind.PERIODIC, alpha=lambda t: 1.0)

    def test_parity_matches_p(self):
        assert BoundaryForcing.even_given(0.1, 0.0, p=1).parity_factor == -1.0
        assert BoundaryForcing.odd_given(0.1, 0.0, p=2).parity_factor == 1.0
        with pytest.raises(ValueError):
            BoundaryForcing(kind=ForcingKind.EVEN_GIVEN, parity_factor=0.5)

    def test_signals_evaluate(self):
        f = BoundaryForcing.even_given(alpha=0.25, beta=lambda t: 0.5 * t, p=1)
        assert f.alpha_at(3.0) == pytest.approx(0.25)
        assert f.beta_at(3.0) == pytest.approx(1.5)
        assert BoundaryForcing.periodic().alpha_at(1.0) == 0.0


class TestStepRule:
    @pytest.mark.parametrize("span, dt, n", [
        (1.0, 0.1, 10),             # whole number of steps, up to rounding
        (0.3, 0.1, 3),              # 0.3 / 0.1 = 2.9999999999999996
        (1.05, 0.1, 11),            # shrunk to land on the end
        (0.01, 0.1, 1),             # one step at least
        (10 / 0.01 / 40, 0.1, 250),
    ])
    def test_counts(self, span, dt, n):
        assert _step_count(span, dt) == n

    @pytest.mark.parametrize("span", [0.0, -1.0, float("nan")])
    def test_nonpositive_span_rejected(self, span):
        with pytest.raises(ValueError, match="t_end must exceed the start time"):
            _step_count(span, 0.1)

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            _step_count(1.0, dt)


class TestSteppingLoop:
    def test_steps_times_and_callback(self):
        seen = []
        x = _integrate("doubler", lambda x, t: 2.0 * x + t, np.zeros(2),
                       np.array([0.0, 1.0, 2.0, 3.0]),
                       lambda i, x: seen.append((i, x.copy())))
        # step i starts at times[i - 1]: 0 -> 0 -> 1 -> 4
        assert np.array_equal(x, [4.0, 4.0])
        assert [i for i, _ in seen] == [1, 2, 3]
        assert [v[0] for _, v in seen] == [0.0, 1.0, 4.0]

    def test_single_time_takes_no_step(self):
        x = np.ones(3)
        assert _integrate("idle", lambda x, t: 1 / 0, x, np.array([5.0])) is x

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
    def test_nonfinite_start_rejected(self, bad):
        x = np.zeros(4, dtype=complex)
        x[2] = bad
        with pytest.raises(ValueError, match="demo: start state contains NaN/Inf"):
            _integrate("demo", lambda x, t: x, x, np.arange(3.0))

    def test_overflow_is_divergence_without_warnings(self):
        times = 0.5 * np.arange(20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match=r"^demo diverged at step 2, t=1: NaN/Inf$"):
                # 1e100 -> 1e300 -> inf
                _integrate("demo", lambda x, t: x * x * x, np.full(3, 1e100), times)

    def test_bound_is_a_runaway(self):
        with pytest.raises(DivergenceError,
                           match=r"^demo diverged at step 4, t=4: runaway past 10$"):
            _integrate("demo", lambda x, t: 2.0 * x, np.ones(2, complex),
                       np.arange(10.0), bound=10.0)
