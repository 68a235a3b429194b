#!/usr/bin/env python3
"""Per-step costs of the rows of the hand-measured baseline table (ROADMAP,
Open item 1), measured the same way each time: untraced, median of five
repeats after one warm-up repeat, threads pinned to 1.

    python3 benchmarks/baseline.py

Prints one line per row, then the criterion-4 r-ladder with and without
cProfile.
"""

import cProfile
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import shlattice as sh  # noqa: E402


def per_step(fn, steps, repeats=5):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) / steps)
    return statistics.median(times)


def model(n, forcing, steps):
    params = sh.make_params(r=0.02, gamma=1.0, p=1, n_elements=n, m_samples=32)
    a0 = sh.modulated_profile(params, 0.2)
    state = sh.conjugate_state(0.0, a0)
    return lambda: sh.run_model(state, params, forcing, 0.1 * steps, 0.1,
                                sample_stride=steps)


def spectral(steps):
    stepper = sh.SpectralStepper(512, 16 * 2 * np.pi, 0.02, 0.05)
    v = stepper.to_spectral(0.1 * np.cos(2 * np.pi * np.arange(512) / 32))
    return lambda: stepper.run(v, steps)


def bounded(steps):
    params = sh.make_params(r=0.02, gamma=1.0, p=1, n_elements=16, m_samples=32)
    grid = sh.FieldGrid.sample(lambda x: 0.1 * np.cos(x), params, periodic=False)
    stepper = sh.BoundedStepper(grid, params, sh.BoundaryForcing.even_given(0.0, 0.0),
                                0.4 * grid.dx ** 2)
    return lambda: stepper.run(grid.u, 0.0, steps)


def ladder():
    params = sh.make_params(r=0.02, gamma=1.0, p=1, n_elements=16, m_samples=32)
    sh.compare_model_vs_direct(sh.CompareConfig(params=params, r_ladder=(0.04, 0.02, 0.01)))


def main():
    rows = (
        ("run_model, periodic, N=16", model(16, sh.BoundaryForcing.periodic(), 2000), 2000),
        ("run_model, walled, N=16", model(16, sh.BoundaryForcing.even_given(0.0, 0.0), 2000),
         2000),
        ("run_model, periodic, N=4096", model(4096, sh.BoundaryForcing.periodic(), 200), 200),
        ("SpectralStepper, n=512", spectral(2000), 2000),
        ("BoundedStepper, n=513", bounded(2000), 2000),
    )
    for label, fn, steps in rows:
        print(f"{label:32s} {per_step(fn, steps) * 1e6:8.1f} us/step", flush=True)
    start = time.perf_counter()
    ladder()
    print(f"{'criterion-4 r-ladder':32s} {time.perf_counter() - start:8.1f} s", flush=True)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.runcall(ladder)
    print(f"{'  under cProfile':32s} {time.perf_counter() - start:8.1f} s")


if __name__ == "__main__":
    main()
