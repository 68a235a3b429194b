import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from shlattice import (
    AmplitudeState,
    BoundaryForcing,
    DivergenceError,
    FieldGrid,
    ForcingKind,
    make_params,
    model_rhs,
)
from shlattice.analysis import _sample_counts
from shlattice.core import _integrate, _step_count
from shlattice.subgrid import interior_envelopes


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

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
    def test_nonfinite_r_rejected(self, r):
        with pytest.raises(ValueError, match="r must be finite"):
            make_params(r=r, gamma=1.0, p=1, n_elements=8, m_samples=32)

    def test_small_lattice_rejected(self):
        with pytest.raises(ValueError):
            make_params(r=0.0, gamma=1.0, p=1, n_elements=1, m_samples=32)
        with pytest.raises(ValueError):
            make_params(r=0.0, gamma=1.0, p=0, n_elements=4, m_samples=32)

    def test_replace_derives_h_from_p(self):
        params = replace(make_params(0, 1, 1, 4, 32), p=2)
        assert params.h == 4 * math.pi and params.parity_factor == 1.0
        assert params == make_params(0, 1, 2, 4, 32)
        with pytest.raises(TypeError):
            replace(params, h=1.0)
        with pytest.raises(AttributeError):
            params.h = 1.0

    @pytest.mark.parametrize("change, message", [
        ({"gamma": 5.0}, "gamma must lie in"),
        ({"m_samples": 20}, "m_samples must be a power of two"),
        ({"r": float("nan")}, "r must be finite"),
        ({"p": 1.5}, "p must be a positive integer"),
        ({"n_elements": 1}, "n_elements must be at least 2"),
        ({"p": math.inf}, "p must be a positive integer"),
        ({"p": math.nan}, "p must be a positive integer"),
        ({"n_elements": math.inf}, "n_elements must be at least 2"),
        ({"m_samples": math.inf}, "m_samples must be a power of two"),
    ])
    def test_replace_is_checked(self, change, message):
        with pytest.raises(ValueError, match=message):
            replace(make_params(0, 1, 1, 4, 32), **change)

    def test_values_take_their_types(self):
        params = replace(make_params(1, 1, 2.0, 4.0, 32.0), r=1, p=3.0)
        assert [type(v) for v in (params.r, params.gamma, params.p, params.n_elements,
                                  params.m_samples)] == [float, float, int, int, int]


def stencils(v, j, periodic=False):
    """(v[j+1] - 2 v[j] + v[j-1], (v[j+1] - v[j-1]) / 2) as the lattice uses
    them: read off model_rhs (coupling 4/h^2 at r = 0, g = 1) and the
    slope of the interior envelope (g/h times the mean difference), with
    a = v and b = 0 so that the cubic and the b-terms vanish."""
    v = np.asarray(v, dtype=complex)
    params = make_params(r=0.0, gamma=1.0, p=1, n_elements=len(v), m_samples=32)
    state = AmplitudeState(0.0, v, np.zeros_like(v))
    da, _ = model_rhs(state, params, BoundaryForcing.periodic())
    plus, _ = interior_envelopes(state, params, j, periodic)
    return da[j] * params.h ** 2 / 4.0, plus[1] * params.h


class TestStencils:
    @pytest.mark.parametrize("v,expect", [
        ([1, 1, 1], 0.0),
        ([0, 0, 1], 1.0),
        ([1, 2, 4], 1.0),
    ])
    def test_second_difference_values(self, v, expect):
        assert stencils(v, 1)[0] == pytest.approx(expect)

    @pytest.mark.parametrize("v,expect", [
        ([1, 1, 1], 0.0),
        ([0, 0, 1], 0.5),
        ([1, 2, 4], 1.5),
    ])
    def test_mean_difference_values(self, v, expect):
        assert stencils(v, 1)[1] == pytest.approx(expect)

    def test_edge_index_rejected_without_wrap(self):
        v = np.arange(5, dtype=complex)
        state = AmplitudeState(0.0, v, np.conj(v))
        params = make_params(r=0.1, gamma=1.0, p=1, n_elements=5, m_samples=32)
        for j in (0, 4):
            with pytest.raises(IndexError):
                interior_envelopes(state, params, j)
        for j in (-1, 5):
            with pytest.raises(IndexError):
                interior_envelopes(state, params, j, periodic=True)

    def test_periodic_wrap(self):
        v = np.array([1.0, 2.0, 4.0], dtype=complex)
        assert stencils(v, 0, periodic=True)[0] == pytest.approx(2 + 4 - 2)
        assert stencils(v, 2, periodic=True)[1] == pytest.approx((1 - 2) / 2)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            c1 = complex(rng.standard_normal(), rng.standard_normal())
            c2 = complex(rng.standard_normal(), rng.standard_normal())
            lhs = stencils(c1 * u + c2 * v, 4)
            su, sv = stencils(u, 4), stencils(v, 4)
            for k in range(2):
                assert abs(lhs[k] - (c1 * su[k] + c2 * sv[k])) < 1e-14

    def test_lattice_mode_symbols(self):
        # on v_j = exp(i kappa j h): d2/v = 2 cos(kappa h) - 2, md/v = i sin(kappa h)
        rng = np.random.default_rng(5)
        h = 2 * np.pi
        for kappa in rng.uniform(0.02, 0.45, size=6):
            j = np.arange(12)
            v = np.exp(1j * kappa * j * h)
            d2, md = stencils(v, 6)
            assert abs(d2 / v[6] - (2 * np.cos(kappa * h) - 2)) < 1e-12
            assert abs(md / v[6] - 1j * np.sin(kappa * h)) < 1e-12


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

    def test_canonical_element_centres(self):
        params = make_params(0.0, 1.0, 1, 4, 32)
        grid = FieldGrid.zeros(params, periodic=False)
        # wall at -h/2, centres (sample m/2 of each element) at multiples of h
        assert grid.x[0] == -params.h / 2
        assert np.allclose(grid.x[16::32], [0, 1, 2, 3] * np.full(4, params.h))

    def test_periodic_wrap_coordinates(self):
        params = make_params(0.0, 1.0, 1, 2, 16)
        grid = FieldGrid.zeros(params, periodic=True)
        # last sample sits one dx short of the wrap point x0 + N h
        assert grid.x[-1] == pytest.approx(-params.h / 2 + 2 * params.h - grid.dx)


class TestBoundaryForcing:
    def test_periodic_carries_no_signals(self):
        f = BoundaryForcing.periodic()
        assert f.alpha == 0.0 and f.beta == 0.0 and f.right is None
        with pytest.raises(ValueError):
            BoundaryForcing(kind=ForcingKind.PERIODIC, alpha=lambda t: 1.0)
        with pytest.raises(ValueError, match="periodic forcing carries no signals"):
            BoundaryForcing(kind=ForcingKind.PERIODIC, right=(0.0, 0.0))

    @pytest.mark.parametrize("right", [0.1, (0.1,), (0.1, 0.2, 0.3), "ab"])
    def test_right_must_be_a_pair(self, right):
        with pytest.raises(ValueError, match=r"right must be an \(alpha, beta\) pair"):
            BoundaryForcing.even_given(0.1, 0.0, p=1, right=right)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [BoundaryForcing.even_given, BoundaryForcing.odd_given])
    def test_nonfinite_constant_signals_rejected(self, make, bad):
        for kwargs in ({"alpha": bad}, {"beta": bad},
                       {"right": (bad, 0.0)}, {"right": (0.0, bad)}):
            with pytest.raises(ValueError, match="wall signals must be finite"):
                make(p=1, **kwargs)
        # a function is called only at the stage times, so it is not checked
        f = make(lambda t: bad, p=1, right=(0.1, lambda t: bad))
        assert f.signals(0.0)[1][0] == 0.1

    def test_parity_matches_p(self):
        assert BoundaryForcing.even_given(0.1, 0.0, p=1).parity_factor == -1.0
        assert BoundaryForcing.odd_given(0.1, 0.0, p=2).parity_factor == 1.0
        with pytest.raises(ValueError):
            BoundaryForcing(kind=ForcingKind.EVEN_GIVEN, parity_factor=0.5)

    def test_signals_evaluate(self):
        # constants and callables, the right wall repeating the left by default
        f = BoundaryForcing.even_given(alpha=0.25, beta=lambda t: 0.5 * t, p=1)
        assert f.signals(3.0) == ((0.25, 1.5), (0.25, 1.5))
        assert BoundaryForcing.periodic().signals(1.0) == ((0.0, 0.0), (0.0, 0.0))
        g = BoundaryForcing.odd_given(0.25, 0.0, p=2, right=(lambda t: -t, 2))
        assert g.signals(3.0) == ((0.25, 0.0), (-3.0, 2.0))
        assert all(type(v) is float for pair in g.signals(3.0) for v in pair)


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

    def test_budget_is_ten_million_steps(self):
        # counted, never allocated: the cap itself passes, one step more fails
        assert _step_count(1e6, 0.1) == 10_000_000
        with pytest.raises(ValueError, match=r"^a span of 1e\+09 at dt=0.05 needs 2e\+10 steps, "
                                             r"more than the budget of 10,000,000$"):
            _step_count(1e9, 0.05)
        with pytest.raises(ValueError, match=r"needs 1e\+07 steps"):
            _step_count(1e6 * (1 + 1e-9), 0.1)
        # span/dt past the largest float is over budget, not an OverflowError
        with pytest.raises(ValueError, match="needs inf steps"):
            _step_count(1e300, 1e-10)

    def test_sampled_runs_count_every_step(self):
        # 1000 samples of 20,000 steps each: each sample is within budget,
        # the run is not
        assert _sample_counts(1e5, 0.05, 1000) == (2_000_000, 2000)
        with pytest.raises(ValueError, match=r"needs 2e\+07 steps"):
            _sample_counts(1e6, 0.05, 1000)


class TestSteppingLoop:
    def test_steps_times_and_callback(self):
        seen = []
        x = _integrate("doubler", lambda x, t: 2.0 * x + t, np.zeros(2), 0.0, 1.0, 3,
                       lambda i, x, t: seen.append((i, x.copy(), t)))
        # step i starts at t0 + (i - 1) dt: 0 -> 0 -> 1 -> 4
        assert np.array_equal(x, [4.0, 4.0])
        assert [i for i, _, _ in seen] == [1, 2, 3]
        assert [v[0] for _, v, _ in seen] == [0.0, 1.0, 4.0]
        # the callback gets the time the step ended at
        assert [t for _, _, t in seen] == [1.0, 2.0, 3.0]

    def test_clock_accumulates(self):
        # t += dt step by step, as a cumsum would, not t0 + i dt
        starts, ends = [], []
        _integrate("clock", lambda x, t: starts.append(t) or x, np.zeros(1), 0.3, 0.1, 10,
                   lambda i, x, t: ends.append(t))
        clock = np.cumsum(np.r_[0.3, np.full(10, 0.1)])
        assert starts == clock[:-1].tolist() and ends == clock[1:].tolist()
        assert ends != [0.3 + i * 0.1 for i in range(1, 11)]

    @pytest.mark.parametrize("t0, t_end, n", [(0.0, 2e4, 200_000), (0.3, 1000.3, 30_001),
                                              (-7.0, 5.0, 99_999)])
    def test_clock_ends_within_its_bound(self, t0, t_end, n):
        # the clock is the sum of n steps of span/n, not t_end: rounding
        # moves it by at most (n + 2) eps max(|t0|, |t_end|), eps = 2^-52
        dt, ends, t = (t_end - t0) / n, [], t0
        _integrate("clock", lambda x, t: x, np.zeros(1), t0, dt, n,
                   lambda i, x, t: i == n and ends.append(t))
        for _ in range(n):
            t += dt
        assert ends == [t]
        assert abs(t - t_end) <= (n + 2) * 2.0 ** -52 * max(abs(t0), abs(t_end))
        if t_end == 2e4:   # 200,000 steps of 0.1 do not land on 2e4
            assert t == 19999.999999989453

    def test_single_time_takes_no_step(self):
        x = np.ones(3)
        assert _integrate("idle", lambda x, t: 1 / 0, x, 5.0, 1.0, 0) is x

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
    def test_nonfinite_start_rejected(self, bad):
        x = np.zeros(4, dtype=complex)
        x[2] = bad
        with pytest.raises(ValueError, match="demo: start state contains NaN/Inf"):
            _integrate("demo", lambda x, t: x, x, 0.0, 1.0, 2)

    def test_overflow_is_divergence_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match=r"^demo diverged at step 2, t=1: NaN/Inf$"):
                # 1e100 -> 1e300 -> inf
                _integrate("demo", lambda x, t: x * x * x, np.full(3, 1e100), 0.0, 0.5, 19)

    def test_bound_is_a_runaway(self):
        with pytest.raises(DivergenceError,
                           match=r"^demo diverged at step 4, t=4: runaway past 10$"):
            _integrate("demo", lambda x, t: 2.0 * x, np.ones(2, complex), 0.0, 1.0, 9,
                       bound=10.0)

    # The bound check looks at the real view's extremes first (|Re|, |Im|
    # within bound/2) and forms the modulus only when they fail.
    @pytest.mark.parametrize("value", [8.0 - 8.0j, -8.0 - 8.0j])
    def test_modulus_past_the_bound_with_both_parts_inside_it(self, value):
        # |Re| = |Im| = 0.8 bound: each part is within the bound, |x| is not;
        # a (2, N) state, as the lattice's general sector steps
        corner = np.zeros((2, 3), complex)
        corner[1, 2] = value
        with pytest.raises(DivergenceError,
                           match=r"^demo diverged at step 1, t=1: runaway past 10$"):
            _integrate("demo", lambda x, t: corner, np.zeros((2, 3), complex), 0.0, 1.0, 2,
                       bound=10.0)

    @pytest.mark.parametrize("value", [0.9, -0.9, 0.6 + 0.6j, -0.7j])
    def test_states_within_the_bound_pass(self, value):
        # past bound/2 in one part, so only the modulus decides
        x = _integrate("demo", lambda x, t: np.full(4, value * 10.0), np.zeros(4, complex),
                       0.0, 1.0, 3, bound=10.0)
        assert np.array_equal(x, np.full(4, value * 10.0))
        real = _integrate("demo", lambda x, t: x + 1e-3, np.zeros(5), 0.0, 1.0, 49)
        assert real[0] == pytest.approx(0.049)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                     complex(0, -np.inf), complex(np.nan, np.inf)])
    @pytest.mark.parametrize("bound", [10.0, None])
    def test_nonfinite_state_is_divergence(self, bad, bound):
        def step(x, t):
            x = x + 1.0
            if t == 2.0:
                x[1] = bad
            return x

        kwargs = {} if bound is None else {"bound": bound}
        with pytest.raises(DivergenceError,
                           match=r"^demo diverged at step 3, t=3: NaN/Inf$"):
            _integrate("demo", step, np.zeros(3, complex), 0.0, 1.0, 5, **kwargs)
        if not isinstance(bad, complex):
            with pytest.raises(DivergenceError,
                               match=r"^demo diverged at step 3, t=3: NaN/Inf$"):
                _integrate("demo", step, np.zeros(3), 0.0, 1.0, 5, **kwargs)
