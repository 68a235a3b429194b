"""The lattice RK4 and the spectral ETDRK4 write their stages into held
buffers.  These tests pin that they still compute, bit for bit, what the
allocating expressions below compute, that no state they hand out is
overwritten later, and how much one warm step allocates.  A `run_model`
on a small lattice steps with stage matrices, whose sums are ordered
differently: it is held to 1e-14 of max|a| instead."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shlattice import (
    AmplitudeState,
    BoundaryForcing,
    SpectralStepper,
    conjugate_state,
    make_params,
    model_rhs,
    rk4_step,
    run_model,
)
from shlattice.amplitude_model import _STAGE_FLOATS, _LatticeKernel, _StageRK4, _kernel

FORCINGS = {
    "periodic": BoundaryForcing.periodic(),
    "even": BoundaryForcing.even_given(lambda t: 0.02 * np.cos(0.3 * t), 0.01, p=1,
                                       right=(0.03, lambda t: 0.01 * np.sin(t))),
    "odd": BoundaryForcing.odd_given(0.02, lambda t: 0.01 * np.cos(0.7 * t), p=1),
}


def state_for(n, sector, t=0.3):
    rng = np.random.default_rng(n)
    a, b = 0.1 * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    return conjugate_state(t, a) if sector == "real" else AmplitudeState(t, a, b)


class ReferenceLattice:
    """The lattice right-hand side and RK4 step as allocating expressions:
    r x + c((up - 2x) + down) - (w (x x)) y on a ghost-padded row, and
    x + sixth(((k1 + 2 k2) + 2 k3) + k4)."""

    def __init__(self, params, forcing):
        g2 = params.gamma ** 2
        self.r, self.c, self.two = (np.array(v, dtype=complex)
                                    for v in (params.r, 4.0 * g2 / params.h ** 2, 2.0))
        self.sign, self.forcing, self.g2_h = forcing.kind.wall_sign, forcing, g2 / params.h
        self.cubic = np.full(params.n_elements, 3.0 * g2, dtype=complex)
        if self.sign:
            self.cubic[[0, -1]] = 3.0

    def drives(self, t):
        (al, bl), (ar, br) = self.forcing.signals(t)
        return self.g2_h * (al + bl), self.g2_h * (ar + br)

    def row(self, x, y, t, conj=False):
        pad = np.empty(len(x) + 2, dtype=complex)
        pad[1:-1] = x
        ghosts = y[[0, -1]] if self.sign else x[[-1, 0]]
        pad[[0, -1]] = ghosts * np.array(-self.sign if self.sign else 1.0, dtype=complex)
        out = (self.r * x + self.c * (pad[2:] - self.two * x + pad[:-2])
               - self.cubic * (x * x) * y)
        if self.sign:
            phase = self.sign * (1.0 - 1.0j)
            left, right = self.drives(t)
            out[0] -= (phase.conjugate() if conj else phase) * left
            out[-1] -= (phase if conj else phase.conjugate()) * right
        return out

    def rhs(self, x, t):
        if x.ndim == 1:
            return self.row(x, np.conj(x), t)
        return np.array((self.row(x[0], x[1], t), self.row(x[1], x[0], t, True)))

    def rk4(self, x, t, dt):
        half, full, sixth = (np.array(v, dtype=complex) for v in (dt / 2, dt, dt / 6))
        k1 = self.rhs(x, t)
        k2 = self.rhs(x + half * k1, t + dt / 2)
        k3 = self.rhs(x + half * k2, t + dt / 2)
        k4 = self.rhs(x + full * k3, t + dt)
        return x + sixth * (k1 + self.two * k2 + self.two * k3 + k4)


@pytest.mark.parametrize("n", [2, 16, 4096])
@pytest.mark.parametrize("sector", ["real", "full"])
@pytest.mark.parametrize("kind", sorted(FORCINGS))
def test_lattice_matches_allocating_reference(kind, sector, n):
    params = make_params(r=0.05, gamma=0.8, p=1, n_elements=n, m_samples=16)
    forcing, state = FORCINGS[kind], state_for(n, sector)
    ref = ReferenceLattice(params, forcing)
    pair = np.array((state.a, state.b))

    da, db = model_rhs(state, params, forcing)
    assert np.array_equal(np.array((da, db)), ref.rhs(pair, state.t))

    dt = 0.05
    stepped = rk4_step(state, params, forcing, dt)
    expect = ref.rk4(pair, state.t, dt)
    assert np.array_equal(stepped.a, expect[0]) and np.array_equal(stepped.b, expect[1])

    t_end = state.t + 12 * dt
    traj = run_model(state, params, forcing, t_end, dt)
    x = state.a if sector == "real" else pair
    stencil = 2 * x.size > _STAGE_FLOATS
    for i, t in enumerate(traj.times[:-1]):
        x = ref.rk4(x, t, (t_end - state.t) / 12)
        got = traj.a[i + 1] if sector == "real" else np.array((traj.a[i + 1], traj.b[i + 1]))
        if stencil:
            assert np.array_equal(got, x)
        else:
            assert np.max(np.abs(got - x)) <= 1e-14 * np.max(np.abs(x))


@st.composite
def stage_runs(draw):
    """A lattice small enough for stage matrices, in either sector, with
    periodic or walled forcing, constant or time-varying signals, a step
    up to 0.1 h^2/8 and up to 16 steps."""
    sector = draw(st.sampled_from(["real", "full"]))
    n = draw(st.integers(2, _STAGE_FLOATS // (2 if sector == "real" else 4)))
    p = draw(st.integers(1, 2))
    params = make_params(r=draw(st.floats(-0.1, 0.2)), gamma=draw(st.floats(0.0, 1.0)),
                         p=p, n_elements=n, m_samples=16)
    kind = draw(st.sampled_from(["periodic", "even", "odd"]))
    forcing = BoundaryForcing.periodic()
    if kind != "periodic":
        alpha, beta, omega = (draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1)),
                              draw(st.sampled_from([0.0, 0.3, 1.0])))
        signal = (lambda t: alpha * math.cos(omega * t)) if omega else alpha
        make = BoundaryForcing.even_given if kind == "even" else BoundaryForcing.odd_given
        forcing = make(signal, beta, p=p, right=(beta, signal))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, noise = rng.standard_normal((2, n, 2)) @ np.array([1.0, 1j])
    # max|a| up to 0.4 keeps the cubic's rate times dt below 1 at p = 2;
    # off the real sector, b = conj(a)(1 + 0.1 noise), as a b with a
    # negative real part would make the cubic blow up in finite time
    a *= draw(st.floats(0.01, 0.4)) / np.max(np.abs(a))
    state = conjugate_state(draw(st.floats(-1.0, 1.0)), a) if sector == "real" \
        else AmplitudeState(draw(st.floats(-1.0, 1.0)), a, np.conj(a) * (1.0 + 0.1 * noise))
    # 0.1 h^2/8 stays inside max_stable_dt, at least 5.5 here, and inf at
    # gamma = r = 0
    dt = draw(st.floats(0.05, 1.0)) * 0.1 * params.h ** 2 / 8
    return state, params, forcing, dt, draw(st.integers(1, 16))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stage_runs())
def test_stage_matrices_match_the_stencil_and_the_reference(run):
    # the stage path against rk4_step (the stencil) and the allocating
    # expressions, within 1e-14 of max|a| at every step
    state, params, forcing, dt, n_steps = run
    t_end = state.t + n_steps * dt
    traj = run_model(state, params, forcing, t_end, dt)
    dt_eff = (t_end - state.t) / n_steps
    assert len(traj.times) == n_steps + 1
    ref = ReferenceLattice(params, forcing)
    current, x = state, np.array((state.a, state.b))
    for i, t in enumerate(traj.times[:-1], 1):
        current = rk4_step(current, params, forcing, dt_eff)
        x = ref.rk4(x, t, dt_eff)
        got, scale = np.array((traj.a[i], traj.b[i])), np.max(np.abs(x))
        assert np.max(np.abs(got - np.array((current.a, current.b)))) <= 1e-14 * scale
        assert np.max(np.abs(got - x)) <= 1e-14 * scale


@pytest.mark.parametrize("sector, n, stencil", [("real", 32, False), ("real", 33, True),
                                                ("full", 16, False), ("full", 17, True)])
def test_the_cutoff_picks_the_path(monkeypatch, sector, n, stencil):
    # stage matrices up to 64 floats of state: N <= 32 in the real sector,
    # N <= 16 in the general one
    calls, rk4 = [], _LatticeKernel.rk4

    def counted(self, *args):
        calls.append(args)
        return rk4(self, *args)

    monkeypatch.setattr(_LatticeKernel, "rk4", counted)
    params = make_params(r=0.05, gamma=1.0, p=1, n_elements=n, m_samples=16)
    run_model(state_for(n, sector), params, FORCINGS["even"], 0.8, 0.1)
    assert len(calls) == (5 if stencil else 0)


@pytest.mark.parametrize("kind", ["periodic", "even", "odd"])
def test_stage_matrices_probe_the_kernel_without_setting_it(kind):
    # M and P are read off the kernel's linear and drive routines: building
    # the stage matrices sets no attribute of the kernel, not even for a
    # while, and leaves its cubic weights as they were
    sets = []

    class Watched(_LatticeKernel):
        def __setattr__(self, name, value):
            sets.append(name)
            super().__setattr__(name, value)

    state = state_for(4, "full")
    params = make_params(r=0.05, gamma=0.8, p=1, n_elements=4, m_samples=16)
    kernel = _kernel(state, params, FORCINGS[kind], (2, 4), 0.05)
    weights = kernel.w.copy()
    kernel.__class__ = Watched
    _StageRK4(kernel)
    assert sets == [] and np.array_equal(kernel.w, weights)


@pytest.mark.parametrize("n", [4, 33], ids=["stage", "stencil"])
def test_stage_steps_reuse_the_end_drives(n):
    # on either path (stage matrices at N = 4, the stencil at N = 33), a
    # step starting where the last ended reuses its drives: signals at the
    # start once, then at the midpoint and end of each step
    calls = []

    def alpha(t):
        calls.append(t)
        return 0.02 * math.cos(0.3 * t)

    params = make_params(r=0.05, gamma=1.0, p=1, n_elements=n, m_samples=16)
    run_model(state_for(n, "real"), params, BoundaryForcing.even_given(alpha, 0.01, p=1),
              0.3 + 40 * 0.05, 0.05)
    assert len(calls) == 2 * 40 + 1


def reference_etdrk4(stepper, v):
    """Kassam & Trefethen's ETDRK4 step as allocating expressions."""
    def nonlinear(v):
        u = np.fft.irfft(v, stepper.n)
        w = np.fft.rfft(-u * u * u)
        w[stepper.cutoff:] = 0.0
        return w

    e, q = stepper.exp_half, stepper.q
    n0 = nonlinear(v)
    va = e * v + q * n0
    na = nonlinear(va)
    vb = e * v + q * na
    nb = nonlinear(vb)
    vc = e * va + q * (2.0 * nb - n0)
    nc = nonlinear(vc)
    f2 = 0.5 * stepper.two_f2   # the stepper keeps only 2 f2; halving is exact
    return (stepper.exp_full * v + stepper.f1 * n0 + 2.0 * f2 * (na + nb)
            + stepper.f3 * nc)


def spectral_start(n):
    stepper = SpectralStepper(n, 2.0 * np.pi * 8, 0.2, 0.05)
    x = 2.0 * np.pi * 8 * np.arange(n) / n
    u = 0.4 * np.cos(x) + 0.2 * np.sin(3 * x) + 0.05 * np.random.default_rng(n).standard_normal(n)
    return stepper, stepper.to_spectral(u)


def test_spectral_run_matches_allocating_reference():
    stepper, v0 = spectral_start(512)
    kept = []
    final = stepper.run(v0, 30, callback=lambda i, v: kept.append(v))
    v = v0
    for got in kept:
        v = reference_etdrk4(stepper, v)
        assert np.array_equal(got, v)
    assert np.array_equal(final, v)
    # the callback kept every state uncopied: none was overwritten later,
    # and the start state is untouched
    assert len({id(v) for v in kept}) == 30
    assert np.array_equal(v0, spectral_start(512)[1])


def test_nonlinear_writes_into_out_or_a_fresh_array():
    stepper, v = spectral_start(512)
    out = np.empty_like(v)
    assert stepper.nonlinear(v, out) is out
    fresh = stepper.nonlinear(v, np.empty_like(v))
    assert fresh is not out and np.array_equal(fresh, out)


def test_consecutive_rk4_results_are_not_overwritten():
    for sector in ("real", "full"):
        state = state_for(16, sector)
        params = make_params(r=0.05, gamma=1.0, p=1, n_elements=16, m_samples=16)
        x0 = state.a.copy() if sector == "real" else np.array((state.a, state.b))
        kernel = _kernel(state, params, FORCINGS["even"], x0.shape, 0.05)
        start = x0.copy()
        x1 = kernel.rk4(x0, 0.0)
        first = x1.copy()
        x2 = kernel.rk4(x1, 0.05)
        second = x2.copy()
        kernel.rk4(x2, 0.1)
        assert np.array_equal(x0, start)
        assert np.array_equal(x1, first) and np.array_equal(x2, second)


def allocated(step):
    """Peak bytes traced while step() runs, after one untraced warm-up."""
    step()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


@pytest.mark.parametrize("sector", ["real", "full"])
def test_warm_rk4_step_allocates_at_most_two_states(sector):
    # the returned state is the one fresh array (1.0 states measured;
    # allocating stages took 8.0 in the real sector, 7.0 in the full one)
    state = state_for(4096, sector)
    params = make_params(r=0.05, gamma=1.0, p=1, n_elements=4096, m_samples=16)
    x = state.a if sector == "real" else np.array((state.a, state.b))
    kernel = _kernel(state, params, FORCINGS["periodic"], x.shape, 0.05)
    assert allocated(lambda: kernel.rk4(x, 0.0)) <= 2 * x.nbytes


def test_warm_etdrk4_step_allocates_at_most_two_and_a_half_states():
    # the returned state, plus numpy's complex copy of one real coefficient
    # array while it multiplies (2.0 states measured; 11.5 with
    # allocating stages)
    stepper, v = spectral_start(4096)
    assert allocated(lambda: stepper.step(v)) <= 2.5 * v.nbytes
