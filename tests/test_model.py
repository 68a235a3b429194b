import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shlattice import (
    AmplitudeState,
    BoundaryForcing,
    CompareConfig,
    DivergenceError,
    compare_model_vs_direct,
    conjugate_state,
    gle_rhs,
    make_params,
    max_stable_dt,
    model_rhs,
    reality_check,
    rk4_step,
    run_model,
)
from shlattice import amplitude_model
from shlattice.amplitude_model import _Coefficients, _derived_dt
from shlattice.analysis import modulated_profile
from shlattice.subgrid import ALPHA_PLUS_SLOPE, boundary_envelopes, interior_envelopes


def params_for(r=0.0, gamma=1.0, p=1, n=8):
    return make_params(r=r, gamma=gamma, p=p, n_elements=n, m_samples=32)


def random_state(n, scale=0.1, seed=0, conjugate=False):
    rng = np.random.default_rng(seed)
    a = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if conjugate:
        return conjugate_state(0.0, a)
    b = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return AmplitudeState(0.0, a, b)


def interior_row(state, params, j):
    """(da_j/dt, db_j/dt) of element j, read off model_rhs on the periodic
    lattice: a row with both neighbours is the same in every kernel."""
    da, db = model_rhs(state, params, BoundaryForcing.periodic())
    return da[j], db[j]


def wall_rows(state, params, forcing):
    """(da/dt, db/dt) of the left (row 0) and right (row -1) wall elements."""
    da, db = model_rhs(state, params, forcing)
    return (da[0], db[0]), (da[-1], db[-1])


class TestInteriorRhs:
    def test_zero_state(self):
        st = AmplitudeState(0.0, np.zeros(3, complex), np.zeros(3, complex))
        da, db = interior_row(st, params_for(r=0.1, n=3), 1)
        assert da == 0 and db == 0

    def test_uniform_equilibrium(self):
        # r = 3 |a|^2 balances growth against the cubic
        st = conjugate_state(0.0, np.full(4, 0.1 + 0j))
        da, db = interior_row(st, params_for(r=0.03, n=4), 1)
        assert abs(da) < 1e-15 and abs(db) < 1e-15

    def test_neighbour_kick(self):
        # a = [0,0,1], b = 0 at the middle element: da = (4 g^2/h^2) * 1 = 1/pi^2
        st = AmplitudeState(0.0, np.array([0, 0, 1], complex), np.zeros(3, complex))
        da, db = interior_row(st, params_for(r=0.0, n=3), 1)
        assert da == pytest.approx(1 / np.pi ** 2, rel=1e-12)
        assert db == 0

    def test_needs_neighbours(self):
        # the end rows take their missing neighbour from the wrap or a wall
        st = random_state(4)
        params = params_for(r=0.0, n=4)
        c = 4.0 / params.h ** 2
        cubic = 3.0 * st.a[0] ** 2 * st.b[0]
        da, _ = model_rhs(st, params, BoundaryForcing.periodic())
        assert da[0] == pytest.approx(c * (st.a[1] - 2.0 * st.a[0] + st.a[3]) - cubic,
                                      rel=1e-14)
        walled, _ = model_rhs(st, params, BoundaryForcing.even_given(0.0, 0.0, p=1))
        assert walled[0] == pytest.approx(c * (st.a[1] - 2.0 * st.a[0] - st.b[0]) - cubic,
                                          rel=1e-14)
        assert np.array_equal(walled[1:-1], da[1:-1])

    def test_gamma_squared_scaling(self):
        # with b = 0 the cubic vanishes; at r = 0 the rhs is pure coupling
        rng = np.random.default_rng(1)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        st = AmplitudeState(0.0, a, np.zeros(6, complex))
        hi = interior_row(st, params_for(gamma=0.8, n=6), 3)[0]
        lo = interior_row(st, params_for(gamma=0.4, n=6), 3)[0]
        assert abs(hi / lo - 4.0) < 1e-12

    def test_phase_equivariance(self):
        st = random_state(5, seed=3)
        params = params_for(r=0.07, n=5)
        theta = 0.7
        rot = AmplitudeState(0.0, np.exp(1j * theta) * st.a, np.exp(-1j * theta) * st.b)
        da, db = interior_row(st, params, 2)
        da_r, db_r = interior_row(rot, params, 2)
        assert abs(da_r - np.exp(1j * theta) * da) < 1e-13
        assert abs(db_r - np.exp(-1j * theta) * db) < 1e-13


class TestGleIdentity:
    def test_interior_matches_discrete_gle(self):
        # at gamma = 1 with b = conj(a) the a-equation is the discrete
        # Ginzburg-Landau equation with c = 4, d = 3
        params = params_for(r=0.04, gamma=1.0, n=10)
        for seed in range(10):
            st = random_state(10, scale=0.3, seed=seed, conjugate=True)
            lattice = model_rhs(st, params, BoundaryForcing.periodic())[0]
            gle = gle_rhs(st.a, params.r, 4.0, 3.0, params.h)
            assert np.max(np.abs(lattice - gle)) < 1e-14

    def test_gle_zero_and_uniform(self):
        assert np.all(gle_rhs(np.zeros(4, complex), 0.1, 4, 3, 2 * np.pi) == 0)
        a = np.full(5, 0.2 + 0.1j)
        out = gle_rhs(a, 0.3, 4, 3, 2 * np.pi)
        expect = 0.3 * a - 3 * (np.abs(a) ** 2) * a
        assert np.max(np.abs(out - expect)) < 1e-15


class TestBoundaryRhs:
    def test_sin_roll_direction_preserved(self):
        # a_1 = a_2 = i s, b = -i s: coupling term vanishes, da = i s (r - 3 s^2)
        s, r = 0.1, 0.05
        params = params_for(r=r, n=2)
        st = AmplitudeState(0.0, np.full(2, 1j * s), np.full(2, -1j * s))
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        (da, db), _ = wall_rows(st, params, forcing)
        assert da == pytest.approx(1j * s * (r - 3 * s ** 2), abs=1e-15)
        assert db == pytest.approx(np.conj(da), abs=1e-15)

    def test_real_roll_decay_rate(self):
        # a_1 = a_2 = rho real, b = conj(a): linear part of da is (r - 8/h^2) rho
        rho, r = 1e-7, 0.02  # tiny so the cubic is negligible
        params = params_for(r=r, n=2)
        st = conjugate_state(0.0, np.full(2, rho + 0j))
        forcing = BoundaryForcing.even_given(0.0, 0.0, p=1)
        (da, _), _ = wall_rows(st, params, forcing)
        assert da.real / rho == pytest.approx(r - 8 / params.h ** 2, abs=1e-9)

    def test_forcing_term_frozen_value(self):
        # zero state, alpha + beta = 0.1, upper: da = -(1/(2 pi))(1-i)(0.1)
        params = params_for(r=0.0, n=2)
        st = AmplitudeState(0.0, np.zeros(2, complex), np.zeros(2, complex))
        forcing = BoundaryForcing.even_given(0.04, 0.06, p=1)
        (da, db), _ = wall_rows(st, params, forcing)
        expect = -(1 / (2 * np.pi)) * (1 - 1j) * 0.1
        assert da == pytest.approx(expect, rel=1e-14)
        assert db == pytest.approx(np.conj(expect), rel=1e-14)

    def test_right_boundary_zero_and_forcing(self):
        params = params_for(r=0.0, n=3)
        st = AmplitudeState(0.0, np.zeros(3, complex), np.zeros(3, complex))
        hom = BoundaryForcing.even_given(0.0, 0.0, p=1)
        assert wall_rows(st, params, hom)[1] == (0, 0)
        forcing = BoundaryForcing.even_given(0.1, 0.0, p=1)
        _, (da, db) = wall_rows(st, params, forcing)
        assert db == pytest.approx(-(1 / (2 * np.pi)) * (1 - 1j) * 0.1, rel=1e-14)
        assert da == pytest.approx(np.conj(db), rel=1e-14)

    def test_right_is_mirror_of_left(self):
        # reversing the lattice and swapping a <-> b maps one wall onto the other
        params = params_for(r=0.03, n=5)
        st = random_state(5, seed=9)
        forcing = BoundaryForcing.odd_given(0.07, -0.02, p=1)
        mirrored = AmplitudeState(st.t, st.b[::-1].copy(), st.a[::-1].copy())
        _, (da_r, db_r) = wall_rows(st, params, forcing)
        (da_l, db_l), _ = wall_rows(mirrored, params, forcing)
        assert da_r == pytest.approx(db_l, rel=1e-14)
        assert db_r == pytest.approx(da_l, rel=1e-14)

    def test_rejects_mismatch_and_periodic(self):
        # a periodic lattice has no walls, so no right-wall signals either
        params = params_for(n=2)
        even = BoundaryForcing.even_given(0.0, 0.0, p=1)
        with pytest.raises(ValueError, match="periodic forcing carries no signals"):
            replace(BoundaryForcing.periodic(), right=(0.0, 0.0))
        one = AmplitudeState(0.0, np.zeros(1, complex), np.zeros(1, complex))
        with pytest.raises(ValueError):
            model_rhs(one, params, even)


class TestModelRhs:
    def test_zero_everywhere(self):
        params = params_for(r=0.0, n=4)
        st = AmplitudeState(0.0, np.zeros(4, complex), np.zeros(4, complex))
        for forcing in (BoundaryForcing.periodic(),
                        BoundaryForcing.even_given(0.0, 0.0, p=1)):
            da, db = model_rhs(st, params, forcing)
            assert np.all(da == 0) and np.all(db == 0)

    def test_periodic_uniform_is_logistic(self):
        params = params_for(r=0.05, n=6)
        st = conjugate_state(0.0, np.full(6, 0.1 + 0.05j))
        da, _ = model_rhs(st, params, BoundaryForcing.periodic())
        expect = params.r * st.a - 3 * (np.abs(st.a) ** 2) * st.a
        assert np.max(np.abs(da - expect)) < 1e-15

    def test_periodic_wraparound_stencil(self):
        # N=3, a=[1,0,0], b=0, r=0: da = (4/h^2) [-2, 1, 1]
        params = params_for(r=0.0, n=3)
        st = AmplitudeState(0.0, np.array([1, 0, 0], complex), np.zeros(3, complex))
        da, db = model_rhs(st, params, BoundaryForcing.periodic())
        c = 4.0 / params.h ** 2
        assert np.allclose(da, c * np.array([-2, 1, 1]), atol=1e-15)
        assert np.all(db == 0)

    def test_second_element_uses_interior_form(self):
        params = params_for(r=0.02, n=5)
        st = random_state(5, seed=21)
        forcing = BoundaryForcing.even_given(0.3, 0.1, p=1)
        da, db = model_rhs(st, params, forcing)
        da1, db1 = interior_row(st, params, 1)
        assert da[1] == da1 and db[1] == db1
        assert np.array_equal(da[1:-1], model_rhs(st, params, BoundaryForcing.periodic())[0][1:-1])

    def test_conjugate_closure_exact(self):
        # b = conj(a) with real signals gives db = conj(da) exactly
        params = params_for(r=0.07, n=6)
        for forcing in (BoundaryForcing.periodic(),
                        BoundaryForcing.even_given(0.2, -0.1, p=1),
                        BoundaryForcing.odd_given(0.05, 0.0, p=1)):
            st = random_state(6, seed=4, conjugate=True)
            da, db = model_rhs(st, params, forcing)
            assert np.max(np.abs(db - np.conj(da))) < 1e-14

    def test_translation_equivariance_periodic(self):
        params = params_for(r=0.05, n=7)
        st = random_state(7, seed=6)
        da, db = model_rhs(st, params, BoundaryForcing.periodic())
        shifted = AmplitudeState(0.0, np.roll(st.a, 2), np.roll(st.b, 2))
        da_s, db_s = model_rhs(shifted, params, BoundaryForcing.periodic())
        assert np.max(np.abs(da_s - np.roll(da, 2))) < 1e-14
        assert np.max(np.abs(db_s - np.roll(db, 2))) < 1e-14

    def test_forced_wall_breaks_phase_equivariance(self):
        params = params_for(r=0.0, n=4)
        forcing = BoundaryForcing.even_given(0.1, 0.0, p=1)
        st = random_state(4, seed=8, conjugate=True)
        theta = 0.9
        rot = AmplitudeState(0.0, np.exp(1j * theta) * st.a, np.exp(-1j * theta) * st.b)
        da, _ = model_rhs(st, params, forcing)
        da_r, _ = model_rhs(rot, params, forcing)
        assert np.max(np.abs(da_r - np.exp(1j * theta) * da)) > 1e-3

    def test_size_mismatch_rejected(self):
        params = params_for(n=5)
        st = random_state(4)
        with pytest.raises(ValueError):
            model_rhs(st, params, BoundaryForcing.periodic())


class TestIntegration:
    def test_zero_stays_zero(self):
        params = params_for(r=0.1, n=4)
        st = AmplitudeState(0.0, np.zeros(4, complex), np.zeros(4, complex))
        traj = run_model(st, params, BoundaryForcing.periodic(), 50.0, 0.2)
        assert np.all(traj.a == 0) and np.all(traj.b == 0)

    def test_logistic_fixed_point(self):
        # uniform real sector approaches |a| = sqrt(r/3)
        params = params_for(r=0.05, n=4)
        st = conjugate_state(0.0, np.full(4, 0.01 + 0j))
        traj = run_model(st, params, BoundaryForcing.periodic(), 400.0, 0.2,
                         sample_stride=100)
        assert abs(abs(traj.a[-1, 0]) - np.sqrt(0.05 / 3)) < 1e-4

    def test_rk4_order(self):
        params = params_for(r=0.1, n=8)
        st = random_state(8, seed=12, conjugate=True)
        per = BoundaryForcing.periodic()
        sols = [run_model(st, params, per, 5.0, dt).final.a
                for dt in (0.2, 0.1, 0.05)]
        e1 = np.max(np.abs(sols[0] - sols[1]))
        e2 = np.max(np.abs(sols[1] - sols[2]))
        assert np.log2(e1 / e2) >= 3.9

    def test_dt_stability_guard(self):
        params = params_for(n=4)
        st = random_state(4)
        with pytest.raises(ValueError):
            rk4_step(st, params, BoundaryForcing.periodic(),
                     1.01 * max_stable_dt(params))

    def test_gate_counts_r_and_admits_compares_step(self):
        # the gate is 2.785 over |r - 2c| + 2c, c = 4 g^2/h^2: compare's
        # derived step, past the old fixed gate 0.1 h^2/8 = 0.49, runs, and
        # 1.01 times the gate does not
        params, periodic = params_for(r=0.02, n=16), BoundaryForcing.periodic()
        c = 4.0 / params.h ** 2
        gate = max_stable_dt(params)
        assert gate == 2.785 / (abs(0.02 - 2.0 * c) + 2.0 * c)
        a0 = modulated_profile(params, 0.2)
        dt = _derived_dt(params, a0)
        assert 0.1 * params.h ** 2 / 8 < dt < gate
        traj = run_model(conjugate_state(0.0, a0), params, periodic, 20 * dt, dt)
        assert np.max(np.abs(traj.a[-1] - traj.a[-1].mean())) < np.max(np.abs(a0 - a0.mean()))
        for run in (lambda dt: rk4_step(conjugate_state(0.0, a0), params, periodic, dt),
                    lambda dt: run_model(conjugate_state(0.0, a0), params, periodic, dt, dt)):
            with pytest.raises(ValueError, match="stability margin"):
                run(1.01 * gate)
        # nothing to bound at gamma = r = 0, where the right-hand side is zero
        assert max_stable_dt(params_for(r=0.0, gamma=0.0)) == math.inf

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(r=st.floats(-10.0, 10.0), gamma=st.floats(0.0, 1.0), p=st.integers(1, 3),
           n=st.integers(2, 8), kind=st.sampled_from(["periodic", "even", "odd"]))
    def test_gate_bounds_the_linear_stencil(self, r, gamma, p, n, kind):
        # the stencil's rates, probed from model_rhs on the unit vectors of
        # (a, b) (where the cubic a^2 b vanishes), are real and within
        # |r - 2c| + 2c, walls included; at max_stable_dt RK4 damps every
        # decaying one
        params = make_params(r=r, gamma=gamma, p=p, n_elements=n, m_samples=16)
        forcing = BoundaryForcing.periodic() if kind == "periodic" else WALLS[kind](0.0, 0.0, p=p)
        columns = []
        for e in np.eye(4 * n):
            a, b = e.view(complex).reshape(2, n)
            columns.append(np.concatenate(model_rhs(AmplitudeState(0.0, a, b), params,
                                                    forcing)).view(float))
        rates = np.linalg.eigvals(np.array(columns).T)
        c = 4.0 * gamma ** 2 / params.h ** 2
        bound, gate = abs(r - 2.0 * c) + 2.0 * c, max_stable_dt(params)
        assert np.max(np.abs(rates.imag)) <= 1e-12 * max(bound, 1.0)
        assert np.max(np.abs(rates.real)) <= bound * (1.0 + 1e-12) + 1e-15
        if bound:
            z = rates.real[rates.real < 0] * gate
            assert np.all(np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24) <= 1.0)
        else:
            assert gate == math.inf

    def test_reported_end_is_the_accumulated_clock(self, monkeypatch):
        # run_model's docstring: the times are sums of span/n, within
        # (n + 2) eps max(|t0|, |t_end|) of t_end but not on it.  The step
        # is an identity, since the clock is what is measured
        monkeypatch.setattr(amplitude_model, "_stepper", lambda kernel: lambda x, t: x)
        traj = run_model(random_state(2, conjugate=True), params_for(r=0.05, n=2),
                         BoundaryForcing.periodic(), 2e4, 0.1, sample_stride=10 ** 9)
        assert traj.times[-1] == 19999.999999989453
        assert abs(traj.times[-1] - 2e4) <= (200_000 + 2) * 2.0 ** -52 * 2e4

    def test_rejects_bad_dt_and_stride(self):
        params = params_for(n=4)
        st = random_state(4, conjugate=True)
        for dt, stride in ((0.0, 1), (-0.1, 1), (0.1, 0)):
            with pytest.raises(ValueError):
                run_model(st, params, BoundaryForcing.periodic(), 1.0, dt,
                          sample_stride=stride)

    def test_divergence_abort(self):
        # b = -conj(a) flips the cubic sign and blows up
        params = params_for(r=0.5, n=4)
        a = np.full(4, 2.0 + 0j)
        st = AmplitudeState(0.0, a, -np.conj(a))
        with pytest.raises(DivergenceError):
            run_model(st, params, BoundaryForcing.periodic(), 100.0, 0.4)

    def test_trajectory_sampling(self):
        params = params_for(r=0.01, n=4)
        st = random_state(4, scale=0.01, seed=1, conjugate=True)
        traj = run_model(st, params, BoundaryForcing.periodic(), 1.0, 0.1,
                         sample_stride=5)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.a.shape[1] == 4


    @pytest.mark.parametrize("conjugate", [True, False])
    def test_stride_past_the_run_samples_its_ends(self, conjugate):
        # any stride from n_steps up, 2**63 included, keeps the start and
        # the final state, the rows that a stride of n_steps keeps
        params = params_for(r=0.01, n=4)
        st = random_state(4, scale=0.01, seed=1, conjugate=conjugate)
        runs = [run_model(st, params, BoundaryForcing.periodic(), 1.0, 0.1, sample_stride=s)
                for s in (10, 11, 2 ** 63 - 1, 2 ** 63, 10 ** 300)]
        for traj in runs:
            assert traj.times.tolist() == runs[0].times.tolist() and len(traj.times) == 2
            assert traj.a.tobytes() == runs[0].a.tobytes()
            assert traj.b.tobytes() == runs[0].b.tobytes()

class TestRealityCheck:
    def test_exact_conjugate_is_zero(self):
        st = conjugate_state(0.0, np.array([0.3 + 0.2j, -0.1j]))
        assert reality_check(st) == 0.0

    def test_simple_violation(self):
        st = AmplitudeState(0.0, np.array([1j]), np.array([1j]))
        assert reality_check(st) == pytest.approx(2.0)

    def test_preserved_over_many_steps(self):
        params = params_for(r=0.1, n=8)
        st = random_state(8, seed=12, conjugate=True)
        current = st
        for _ in range(10_000):
            current = rk4_step(current, params, BoundaryForcing.periodic(), 0.04)
        assert reality_check(current) <= 1e-10


# deterministic examples, so every run of the suite checks the same cases
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
WALLS = {"even": BoundaryForcing.even_given, "odd": BoundaryForcing.odd_given}


def drawn_signals(draw):
    """A wall's (alpha, beta): constants, or alpha cos(omega t) and a constant."""
    alpha = draw(st.floats(-0.1, 0.1))
    omega = draw(st.sampled_from([0.0, 0.3, 1.0]))
    if omega:
        return (lambda t: alpha * math.cos(omega * t)), draw(st.floats(-0.1, 0.1))
    return alpha, draw(st.floats(-0.1, 0.1))


@st.composite
def real_sector_runs(draw):
    """A real-sector state with random parameters, forcing and sampling."""
    n = draw(st.integers(2, 9))
    p = draw(st.integers(1, 2))
    params = make_params(r=draw(st.floats(-0.1, 0.2)), gamma=draw(st.floats(0.0, 1.0)),
                         p=p, n_elements=n, m_samples=32)
    kind = draw(st.sampled_from(["periodic", "even", "odd"]))
    if kind == "periodic":
        forcing = BoundaryForcing.periodic()
    else:
        forcing = WALLS[kind](*drawn_signals(draw), p=p)
        if draw(st.booleans()):
            forcing = replace(forcing, right=drawn_signals(draw))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = draw(st.floats(0.01, 0.4)) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return dict(state=conjugate_state(draw(st.floats(-1.0, 1.0)), a), params=params,
                forcing=forcing, t_span=draw(st.floats(0.3, 6.0)),
                dt=draw(st.sampled_from([0.05, 0.1, 0.25])),
                stride=draw(st.integers(1, 6)))


def rk4_reference(state, params, forcing, t_end, dt, stride):
    """run_model's sampling, stepping (a, b) with rk4_step."""
    n_steps = max(1, math.ceil((t_end - state.t) / dt - 1e-12))
    dt_eff = (t_end - state.t) / n_steps
    samples = [state]
    current = state
    for step in range(1, n_steps + 1):
        current = rk4_step(current, params, forcing, dt_eff)
        if step % stride == 0 or step == n_steps:
            samples.append(current)
    return (np.array([s.t for s in samples]), np.array([s.a for s in samples]),
            np.array([s.b for s in samples]))


class TestRealSectorFastPath:
    @PROPERTY
    @given(real_sector_runs())
    def test_matches_general_rk4_path(self, run):
        state, t_end = run["state"], run["state"].t + run["t_span"]
        traj = run_model(state, run["params"], run["forcing"], t_end, run["dt"],
                         sample_stride=run["stride"])
        times, a, b = rk4_reference(state, run["params"], run["forcing"], t_end,
                                    run["dt"], run["stride"])
        assert np.array_equal(traj.times, times)
        assert traj.a.shape == a.shape and traj.b.shape == b.shape
        assert np.array_equal(traj.b, np.conj(traj.a))
        # N <= 9 steps with stage matrices, whose sums are ordered
        # differently from the stencil's
        scale = np.max(np.abs(a))
        assert np.max(np.abs(traj.a - a)) <= 1e-14 * scale
        assert np.max(np.abs(traj.b - b)) <= 1e-14 * scale

    def test_dt_guard(self):
        params = params_for(n=4)
        st0 = random_state(4, seed=2, conjugate=True)
        dt = 1.01 * max_stable_dt(params)
        with pytest.raises(ValueError, match="stability margin"):
            run_model(st0, params, BoundaryForcing.periodic(), dt, dt)

    def test_overflow_raises_divergence(self):
        params = params_for(r=0.1, n=4)
        st0 = conjugate_state(0.0, np.full(4, 1e160 + 0j))
        with pytest.raises(DivergenceError, match="NaN/Inf"):
            run_model(st0, params, BoundaryForcing.periodic(), 10.0, 0.1)

    @pytest.mark.parametrize("real", [True, False])
    def test_nonfinite_start_rejected(self, real):
        params = params_for(n=4)
        a = np.full(4, 0.1 + 0j)
        a[1] = np.nan
        st0 = conjugate_state(0.0, a) if real else AmplitudeState(0.0, a, np.zeros(4, complex))
        with pytest.raises(ValueError, match="lattice model: start state contains NaN/Inf"):
            run_model(st0, params, BoundaryForcing.periodic(), 1.0, 0.1)

    def test_runaway_names_step_and_time(self):
        # with b = 0 the cubic vanishes: growth at rate r = 0.5 from |a| = 9e5
        # passes the 1e6 bound in the first step of 0.4, far from overflow
        params = params_for(r=0.5, n=4)
        a = np.full(4, 9e5 + 0j)
        st0 = AmplitudeState(0.0, a, np.zeros(4, complex))
        with pytest.raises(DivergenceError,
                           match=r"^lattice model diverged at step 1, t=0.4: runaway past 1e\+06$"):
            run_model(st0, params, BoundaryForcing.periodic(), 2.0, 0.4)


def lyapunov(a, params, sign, signals=((0.0, 0.0), (0.0, 0.0))):
    """V = sum_j [-r|a_j|^2 + (3/2) w_j |a_j|^4] + (4 g^2/h^2) sum |a_{j+1} - a_j|^2,
    with w = g^2 inside and 1 at a wall element, which also adds
    (4 g^2/h^2)(|a_j|^2 + s Re a_j^2); sign = 0 is periodic.  Constant wall
    signals ((alpha_l, beta_l), (alpha_r, beta_r)) add the linear term
    2 Re(K_l conj a_1) + 2 Re(K_r conj a_N), with K_l = s(1 - i)(g^2/h)(alpha_l + beta_l)
    and K_r = s(1 + i)(g^2/h)(alpha_r + beta_r).  a is (nt, N)."""
    g2 = params.gamma ** 2
    c = 4.0 * g2 / params.h ** 2
    w = np.full(a.shape[1], g2)
    if sign:
        links = np.diff(a, axis=1)
        w[[0, -1]] = 1.0
        ends = a[:, [0, -1]]
        walls = c * np.sum(np.abs(ends) ** 2 + sign * (ends ** 2).real, axis=1)
        (al, bl), (ar, br) = signals
        k = sign * g2 / params.h * np.array([(1 - 1j) * (al + bl), (1 + 1j) * (ar + br)])
        walls = walls + 2.0 * (k * np.conj(ends)).real.sum(axis=1)
    else:
        links = np.roll(a, -1, axis=1) - a
        walls = 0.0
    mag2 = np.abs(a) ** 2
    return (np.sum(-params.r * mag2 + 1.5 * w * mag2 ** 2, axis=1)
            + c * np.sum(np.abs(links) ** 2, axis=1) + walls)


class TestLyapunovDecrease:
    """V never increases along a run; at N = 6 the runs step with stage
    matrices, and the stencil's right-hand side is minus V's gradient."""

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("kind", ["periodic", "even", "odd"])
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(r=st.floats(-0.05, 0.2), scale=st.floats(0.02, 0.5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_unforced_run_never_increases_v(self, kind, gamma, r, scale, seed):
        n = 6
        params = make_params(r=r, gamma=gamma, p=1, n_elements=n, m_samples=32)
        forcing = (BoundaryForcing.periodic() if kind == "periodic"
                   else WALLS[kind](0.0, 0.0, p=1))
        sign = {"periodic": 0.0, "even": 1.0, "odd": -1.0}[kind]
        rng = np.random.default_rng(seed)
        a0 = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        traj = run_model(conjugate_state(0.0, a0), params, forcing, 40.0, 0.1)
        v = lyapunov(traj.a, params, sign)
        assert np.all(np.diff(v) <= 1e-13 * np.max(np.abs(v)))

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("kind", ["even", "odd"])
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(r=st.floats(-0.05, 0.2), scale=st.floats(0.02, 0.5),
           signals=st.lists(st.floats(-0.1, 0.1), min_size=4, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_forced_run_never_increases_v(self, kind, gamma, r, scale, signals, seed):
        # constant wall signals keep the run a gradient flow of the forced V
        n = 6
        params = make_params(r=r, gamma=gamma, p=1, n_elements=n, m_samples=32)
        forcing = WALLS[kind](*signals[:2], p=1, right=tuple(signals[2:]))
        rng = np.random.default_rng(seed)
        a0 = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        traj = run_model(conjugate_state(0.0, a0), params, forcing, 40.0, 0.1)
        v = lyapunov(traj.a, params, forcing.kind.wall_sign, forcing.signals(0.0))
        assert np.all(np.diff(v) <= 1e-13 * np.max(np.abs(v)))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(r=st.floats(-10.0, 10.0), gamma=st.floats(0.0, 1.0), p=st.integers(1, 3),
           n=st.integers(2, 16), modulation=st.floats(-1.0, 1.0), t_end=st.floats(1.0, 50.0))
    @example(r=0.0, gamma=0.0, p=1, n=4, modulation=0.5, t_end=5.0)
    def test_compare_default_step_is_stable(self, r, gamma, p, n, modulation, t_end):
        # compare's model step is derived from the run (CompareConfig): from
        # compare's own start, sqrt(r/3)(1 + m cos) (zero for r <= 0), it
        # finishes, stays within 1e-3 of its peak |a| of a quarter-step run,
        # and keeps V from increasing.  The horizon is 10/r for r >= 0.1 and
        # the drawn t_end, below 10/r, otherwise, so no start grows past e^10
        params = make_params(r=r, gamma=gamma, p=p, n_elements=n, m_samples=32)
        cfg = CompareConfig(params=params, modulation=modulation,
                            t_end=None if r >= 0.1 else t_end)
        report = compare_model_vs_direct(cfg)
        quarter = compare_model_vs_direct(replace(cfg, dt_model=report.metadata["dt_model"] / 4))
        a, fine = report.model_amplitudes, quarter.model_amplitudes
        assert report.metadata["dt_model"] <= max_stable_dt(params)
        assert np.max(np.abs(a - fine)) <= 1e-3 * np.max(np.abs(fine))
        if gamma > 0:
            # rounding scales with V's terms, not with V, in which they can
            # cancel (a uniform start at r near 0)
            mag2, c = np.max(np.abs(a)) ** 2, 4.0 * gamma ** 2 / params.h ** 2
            scale = n * mag2 * (abs(r) + 4.0 * c + 1.5 * gamma ** 2 * mag2)
            assert np.all(np.diff(lyapunov(a, params, 0.0)) <= 1e-13 * scale)

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("kind", ["periodic", "even", "odd"])
    def test_rhs_is_minus_gradient_of_v(self, kind, gamma):
        # da_j/dt = -dV/d(conj a_j) = -(dV/dRe a_j + i dV/dIm a_j) / 2, with
        # constant wall signals, the right wall's its own
        n, eps = 5, 1e-6
        params = make_params(r=0.07, gamma=gamma, p=1, n_elements=n, m_samples=32)
        forcing = (BoundaryForcing.periodic() if kind == "periodic"
                   else WALLS[kind](0.03, -0.05, p=1, right=(0.02, 0.04)))
        sign = {"periodic": 0.0, "even": 1.0, "odd": -1.0}[kind]
        a = random_state(n, scale=0.3, seed=17).a
        grad = np.empty(n, complex)
        for j in range(n):
            step = np.zeros(n, complex)
            step[j] = eps
            d_re, d_im = (np.diff(lyapunov(np.array([a - s, a + s]), params, sign,
                                          forcing.signals(0.0)))[0]
                          / (2 * eps) for s in (step, 1j * step))
            grad[j] = (d_re + 1j * d_im) / 2
        da, _ = model_rhs(conjugate_state(0.0, a), params, forcing)
        assert np.max(np.abs(da + grad)) <= 1e-8 * np.max(np.abs(da))


class TestCoefficientTable:
    """The lattice model's coefficients are written once, in
    `_Coefficients`; the kernel, its step rules and the reconstruction read
    them from there, and the table is the paper's O(g^2) algebra."""

    @staticmethod
    def cubic_weight(params, forcing, row, n=4):
        # da_row/dt on a_row = b_row = x (every other amplitude 0) is
        # L x - w x^3, so w = (2 f(1) - f(2)) / 6 eliminates the linear part
        def f(x):
            e = np.zeros(n, complex)
            e[row] = x
            return model_rhs(AmplitudeState(0.0, e, e), params, forcing)[0][row].real
        return (2.0 * f(1.0) - f(2.0)) / 6.0

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(gamma=st.floats(0.0, 1.0), p=st.integers(1, 3), r=st.floats(-1.0, 1.0),
           kind=st.sampled_from(["even", "odd"]), amp=st.floats(0.0, 1.0))
    def test_consumers_read_the_table(self, gamma, p, r, kind, amp):
        params = params_for(r=r, gamma=gamma, p=p, n=4)
        table, h = _Coefficients(params), 2.0 * math.pi * p
        # the paper's coefficients: coupling 4 g^2/h^2, cubic 3 g^2 (3 in a
        # wall row), wall drive g^2/h, envelope correction g/4h
        for got, paper in ((table.coupling, 4.0 * gamma ** 2 / h ** 2),
                           (table.cubic, 3.0 * gamma ** 2), (table.wall_cubic, 3.0),
                           (table.drive, gamma ** 2 / h), (table.envelope, gamma / (4.0 * h))):
            assert got == pytest.approx(paper, rel=1e-15, abs=0.0)
        c = table.coupling
        # the kernel's stencil rates, probed from model_rhs: a unit a_1 with
        # b = 0 (no cubic) gives r - 2c on its own row and c on its neighbour's
        unit = AmplitudeState(0.0, np.eye(4, dtype=complex)[1], np.zeros(4, complex))
        da, _ = model_rhs(unit, params, BoundaryForcing.periodic())
        assert da[2] == c and da[1] == r - 2.0 * c
        forcing = WALLS[kind](0.0, 0.0, p=p)
        for row, weight in ((1, table.cubic), (0, table.wall_cubic)):
            assert self.cubic_weight(params, forcing, row) == pytest.approx(
                weight, rel=1e-12, abs=1e-14)
        # the wall drive: a zero lattice under unit alpha feels -s (1 - i) g^2/h
        s = forcing.kind.wall_sign
        zero = AmplitudeState(0.0, np.zeros(4, complex), np.zeros(4, complex))
        da, _ = model_rhs(zero, params, WALLS[kind](1.0, 0.0, p=p))
        assert da[0] == -s * (1.0 - 1.0j) * table.drive
        # the step rules: RK4's 2.785 over the Gershgorin bound, and compare's
        # step with the cubic's Jacobian norm 3 w A^2 added
        bound = abs(r - 2.0 * c) + 2.0 * c
        assert table.bound == bound
        assert max_stable_dt(params) == (2.785 / bound if bound else math.inf)
        a0 = amp * np.exp(1j * np.linspace(0.0, 3.0, 4))
        rho = bound + max(3.0 * table.cubic * float(np.max(np.abs(a0))) ** 2,
                          3.0 * max(r, 0.0))
        assert _derived_dt(params, a0) == (0.5 * 2.785 / rho if rho else math.inf)
        # the reconstruction: a unit neighbour corrects the envelope by g/4h,
        # and a unit alpha drives the wall profile's slope by s g^2/h
        plus, _ = interior_envelopes(unit, params, 2)
        assert plus[0] == table.envelope
        plus, _ = boundary_envelopes(zero, params, WALLS[kind](1.0, 0.0, p=p))
        assert plus[1] == s * table.drive * ALPHA_PLUS_SLOPE
