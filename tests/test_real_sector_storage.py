"""Real-sector amplitudes are stored once.

A `run_model` trajectory from a state with b == conj(a) keeps a alone and
reads b as conj(a); `extract_amplitudes` takes b = conj(a) of the real
field.  These tests pin both against references that store or compute b
the long way, bit for bit, and bound what a real-sector run allocates.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from shlattice import (
    AmplitudeState,
    BoundaryForcing,
    FieldGrid,
    conjugate_state,
    extract_amplitudes,
    make_params,
    run_model,
)
from shlattice import amplitude_model
from shlattice.amplitude_model import _kernel, _stepper

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


def stored_reference(state, params, forcing, t_end, dt, stride):
    """times, a and b of a run with b stored as its own array: run_model's
    step stepped by hand, on a alone in the real sector, with every sampled
    b written out as conj(a)."""
    n_steps = int(np.ceil((t_end - state.t) / dt - 1e-12))
    dt_eff = (t_end - state.t) / n_steps
    times = np.cumsum(np.r_[state.t, np.full(n_steps, dt_eff)])
    real = np.array_equal(state.b, np.conj(state.a))
    x = state.a if real else np.array((state.a, state.b))
    step = _stepper(_kernel(state, params, forcing, x.shape, dt_eff))
    rows = [x]
    for i in range(1, n_steps + 1):
        x = step(x, float(times[i - 1]))
        if i % stride == 0 or i == n_steps:
            rows.append(x)
    if real:
        a = np.array(rows)
        return times[np.r_[0:n_steps:stride, n_steps]], a, np.conj(a)
    rows = np.array(rows)
    return times[np.r_[0:n_steps:stride, n_steps]], rows[:, 0], rows[:, 1]


@pytest.mark.parametrize("kind", list(FORCINGS))
@pytest.mark.parametrize("sector", ["real", "full"])
def test_trajectory_matches_a_stored_b_reference(kind, sector):
    n = 16
    params = make_params(r=0.05, gamma=1.0, p=1, n_elements=n, m_samples=16)
    state = state_for(n, sector)
    traj = run_model(state, params, FORCINGS[kind], 2.3, 0.05, sample_stride=3)
    times, a, b = stored_reference(state, params, FORCINGS[kind], 2.3, 0.05, 3)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.a, a) and np.array_equal(traj.b, b)
    final = traj.final
    assert final.t == times[-1]
    assert np.array_equal(final.a, a[-1]) and np.array_equal(final.b, b[-1])
    # final hands out its own arrays
    final.a[:] = final.b[:] = 0.0
    assert np.array_equal(traj.a, a) and np.array_equal(traj.b, b)


def test_only_the_general_sector_stores_b():
    params = make_params(r=0.05, gamma=1.0, p=1, n_elements=8, m_samples=16)
    real, full = (run_model(state_for(8, sector), params, FORCINGS["even"], 1.0, 0.05)
                  for sector in ("real", "full"))
    assert real.b is not real.b        # formed on each read
    assert full.b is full.b


def test_real_sector_run_allocates_little_beyond_its_samples():
    # a run of 1000 steps at N=4096 keeping 101 samples: the samples plus
    # the kernel's held rows (1.1 measured; storing b as well took 2.1)
    n = 4096
    params = make_params(r=0.05, gamma=1.0, p=1, n_elements=n, m_samples=32)
    state = state_for(n, "real", t=0.0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        traj = run_model(state, params, FORCINGS["periodic"], 100.0, 0.1, sample_stride=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.a.shape == (101, n)
    assert peak - before <= 1.2 * traj.a.nbytes


GRIDS = [(n, m, periodic) for n in (2, 3, 5, 8, 16, 64, 4096) for m in (16, 32, 64)
         for periodic in (True, False)]


@pytest.mark.parametrize("n, m, periodic", GRIDS)
def test_extracted_b_is_the_conjugate_product_bit_for_bit(n, m, periodic):
    # the reference gathers each element's samples by index, multiplies
    # them by the element-local table w_k exp(-i(x0 + k dx)) (element j
    # starts 2 pi p j after element 0), the closing sample last, and forms
    # b the long way, as a second product with the conjugate table
    params = make_params(r=0.05, gamma=1.0, p=1, n_elements=n, m_samples=m)
    grid = FieldGrid.zeros(params, periodic=periodic)
    grid.u = np.random.default_rng(n * m).standard_normal(len(grid.u))
    idx = np.arange(n)[:, None] * m + np.arange(m + 1)[None, :]
    uvals = grid.u[idx % len(grid.u)]
    w = np.full(m + 1, grid.dx / params.h)
    w[[0, -1]] *= 0.5
    table = w * np.exp(-1j * (grid.x0 + grid.dx * np.arange(m + 1)))
    st = extract_amplitudes(grid, params)
    assert np.array_equal(st.a, uvals[:, :m] @ table[:m] + uvals[:, m] * table[m])
    conj = np.conj(table)
    assert np.array_equal(st.b, uvals[:, :m] @ conj[:m] + uvals[:, m] * conj[m])
    assert np.array_equal(st.b, np.conj(st.a))


def traced_peak(run):
    """(result, peak bytes that tracemalloc saw run allocate)."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before


def test_long_run_sampled_at_its_ends_allocates_no_clock(monkeypatch):
    # 200,000 steps at N=2 keeping two samples: the loop keeps the clock,
    # so nothing grows with the step count (a stored clock took 1.6 MB).
    # The step is an identity, since under tracemalloc a real one costs
    # 50 us; what is measured is run_model and the loop around it.
    monkeypatch.setattr(amplitude_model, "_stepper", lambda kernel: lambda x, t: x)
    params = make_params(r=0.05, gamma=1.0, p=1, n_elements=2, m_samples=16)
    state = state_for(2, "real", t=0.0)
    traj, peak = traced_peak(lambda: run_model(state, params, FORCINGS["periodic"], 2e4, 0.1,
                                               sample_stride=10 ** 9))
    assert traj.a.shape == (2, 2) and traj.times[-1] == pytest.approx(2e4)
    assert peak < 64 * 1024


def test_extraction_allocates_no_index_matrices():
    # N=4096, m=32: the samples are a reshaped view, times one table (the
    # index, coordinate and exponential matrices took 7.6 MB; 3.2 measured)
    params = make_params(r=0.05, gamma=1.0, p=1, n_elements=4096, m_samples=32)
    grid = FieldGrid.zeros(params, periodic=True)
    grid.u = np.random.default_rng(3).standard_normal(len(grid.u))
    st, peak = traced_peak(lambda: extract_amplitudes(grid, params))
    assert st.n == 4096
    assert peak < 3.8e6


def test_extraction_keeps_nothing_between_calls():
    # a strided view made through numpy's as_strided (sliding_window_view)
    # left 5-8 KB alive over 1000 calls here (numpy 2.4); the reshaped
    # view leaves 32 bytes
    params = make_params(r=0.05, gamma=1.0, p=1, n_elements=16, m_samples=32)
    grid = FieldGrid.zeros(params, periodic=True)
    grid.u = np.random.default_rng(4).standard_normal(len(grid.u))
    extract_amplitudes(grid, params)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(1000):
            extract_amplitudes(grid, params)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 2048
