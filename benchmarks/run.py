#!/usr/bin/env python3
"""Benchmark of shlattice, one workload per call.

    python3 benchmarks/run.py --workload {ladder,walls,wide,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  The
workload's inputs are made from ``--seed`` (see ``workloads.py``).  After a
warm-up iteration on the reduced (tiny) inputs, iterations repeat until
``--seconds`` have passed, and every output is checked.

``--trace 0`` reports the end-to-end metrics: medians over the iterations,
with only the solver entry points timed (to split model and oracle time),
and the median set-up time of several fresh interpreters.  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
of the traced ones, per iteration, with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine and derived figures.  Self-test: ``benchmarks/selftest.py``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (this script's directory is on sys.path)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ladder", "walls", "wide", "cli")
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the reduced inputs of the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt every output before its check (self-test)")
    return parser.parse_args(argv)


# -- machine -------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(seed: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "commit": _git_commit(), "seed": seed,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


# -- measuring -----------------------------------------------------------------

def setup_seconds(name: str, seed: int, tiny: bool) -> list[float]:
    """Wall time of fresh interpreters that import shlattice and make the
    workload's inputs."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import workloads; workloads.WORKLOADS[{name!r}].inputs({seed}, {tiny})")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr.decode(errors='replace')}")
    return times


def iterate(wl, inp, mode: str, corrupt: bool) -> dict:
    """One iteration: wall time of the program's work, trace summary, checks."""
    tracer = tracing.Tracer(full=mode == "full") if wl.in_process else None
    if tracer:
        tracer.install()
    out = None
    start = time.perf_counter()
    try:
        out = wl.run(inp, mode)
    except Exception:
        traceback.print_exc()
    finally:
        wall = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    rec = {"wall": wall, "rss_kb": 0, "bytes": 0,
           "summary": tracer.summary() if tracer else tracing.empty_summary()}
    if out is not None and not wl.in_process:
        rec["summary"], rec["rss_kb"] = out["summary"], out["child_rss_kb"]
        rec["bytes"] = sum(c["bytes"] for c in out["commands"].values())
    results = [(op, False, "raised") for op in wl.ops]
    if out is not None:
        if corrupt:
            wl.corrupt(out)
        try:
            results = wl.check(inp, out)
        except Exception:
            traceback.print_exc()
    for op, ok, detail in results:
        if not ok:
            print(f"FAILED {wl.name}/{op}: {detail}", file=sys.stderr)
    rec["results"] = results
    return rec


def _ms_per_simtime(records, kind: str) -> float:
    """Solver milliseconds per unit of simulated time over all iterations:
    a single solver call is too short to time steadily on a shared machine."""
    simtime = sum(r["summary"]["counts"].get(f"{kind}_simtime", 0.0) for r in records)
    seconds = sum(r["summary"][f"{kind}_s"] for r in records)
    return 1e3 * seconds / simtime if simtime else 0.0


def end_to_end(records, setup, rss_kb) -> dict:
    return {
        "wall_s": (statistics.median(r["wall"] for r in records), "s"),
        "model_ms_per_simtime": (_ms_per_simtime(records, "model"), "ms/simtime"),
        "oracle_ms_per_simtime": (_ms_per_simtime(records, "oracle"), "ms/simtime"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(traced, untraced) -> dict:
    """Per-iteration layer figures of the traced iterations."""
    total = tracing.empty_summary()
    for rec in traced:
        total = tracing.merge(total, rec["summary"])
    iters = len(traced)
    spans, counts, layers = total["spans"], total["counts"], total["layers"]

    def calls(name):
        return _count(spans.get(name, [0])[0], iters)

    def each(name, scale):
        n, incl, _ = spans.get(name, [0, 0.0, 0.0])
        return incl / n * scale if n else 0.0

    def seconds(name, column):
        return spans.get(name, [0, 0.0, 0.0])[column] / iters

    rm, rk4, rhs = ("amplitude_model.run_model", "amplitude_model.rk4_step",
                    "amplitude_model.model_rhs")
    ss, bs = "direct_solver.SpectralStepper", "direct_solver.BoundedStepper"
    run_model_s = spans.get(rm, [0, 0.0])[1]
    traced_wall = statistics.median(r["wall"] for r in traced)
    metrics = {
        "core.state_constructs": (_count(counts.get("state_constructs", 0), iters), "count"),
        "amplitude_model.run_model.s": (seconds(rm, 1), "s"),
        "amplitude_model.run_model.self_s": (seconds(rm, 2), "s"),
        "amplitude_model.rk4_step.us": (each(rk4, 1e6), "us"),
        "amplitude_model.rk4_step.calls": (calls(rk4), "count"),
        "amplitude_model.model_rhs.us": (each(rhs, 1e6), "us"),
        "amplitude_model.model_rhs.calls": (calls(rhs), "count"),
        "amplitude_model.element_steps_per_s": (
            counts.get("element_steps", 0) / run_model_s if run_model_s else 0.0, "1/s"),
        "direct_solver.spectral.build_ms": (each(f"{ss}.__init__", 1e3), "ms"),
        "direct_solver.spectral.builds": (calls(f"{ss}.__init__"), "count"),
        "direct_solver.spectral.step_us": (each(f"{ss}.step", 1e6), "us"),
        "direct_solver.spectral.steps": (calls(f"{ss}.step"), "count"),
        "direct_solver.spectral.nonlinear_us": (each(f"{ss}.nonlinear", 1e6), "us"),
        "direct_solver.spectral.nonlinear_calls": (calls(f"{ss}.nonlinear"), "count"),
        "direct_solver.spectral.run.self_s": (seconds(f"{ss}.run", 2), "s"),
        "direct_solver.growth_rate.calls": (
            calls("direct_solver.measure_growth_rate"), "count"),
        "direct_solver.bounded.build_ms": (each(f"{bs}.__init__", 1e3), "ms"),
        "direct_solver.bounded.step_us": (each(f"{bs}.step", 1e6), "us"),
        "direct_solver.bounded.steps": (calls(f"{bs}.step"), "count"),
        "subgrid.lattice_field.ms": (each("subgrid.lattice_field", 1e3), "ms"),
        "subgrid.lattice_field.calls": (calls("subgrid.lattice_field"), "count"),
        "subgrid.eval_field.calls": (calls("subgrid.eval_field"), "count"),
        "subgrid.extract_amplitudes.us": (each("subgrid.extract_amplitudes", 1e6), "us"),
        "subgrid.extract_amplitudes.calls": (calls("subgrid.extract_amplitudes"), "count"),
        "analysis.compare.self_s": (total["compare_self_s"] / iters, "s"),
        "cli.bytes_written": (_count(sum(r["bytes"] for r in traced), iters), "bytes"),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (layers[layer] / iters, "s")
    metrics["traced_wall_s"] = (traced_wall, "s")
    metrics["unattributed_s"] = (
        (sum(r["wall"] for r in traced) - sum(layers.values())) / iters, "s")
    metrics["tracing_overhead_s"] = (
        traced_wall - statistics.median(r["wall"] for r in untraced), "s")
    return metrics


def _count(total, iters):
    """Per-iteration count: an int when every iteration did the same work."""
    return total // iters if total % iters == 0 else total / iters


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shlattice" / "__init__.py").is_file():
        print(f"error: no shlattice package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the benchmark: {exc}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    inp = wl.inputs(args.seed, tiny)
    print("machine " + json.dumps(machine(args.seed)), flush=True)

    setup = setup_seconds(args.workload, args.seed, tiny) if not args.trace else []
    iterate(wl, wl.inputs(args.seed, True), "coarse", False)  # warm-up

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(iterate(wl, inp, "coarse", args.corrupt))
        if args.trace:
            traced.append(iterate(wl, inp, "full", args.corrupt))
        if time.perf_counter() - start >= args.seconds:
            break

    records = untraced + traced
    attempted = sum(len(r["results"]) for r in records)
    failed = sum(not ok for r in records for _, ok, _ in r["results"])
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        rss_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                     + [r["rss_kb"] for r in records])
        metrics = end_to_end(untraced, setup, rss_kb)
        model = metrics["model_ms_per_simtime"][0]
        oracle = metrics["oracle_ms_per_simtime"][0]
        print("derived " + json.dumps({
            "failed_frac": failed / attempted,
            "model_over_oracle_cost": model / oracle if oracle else None,
            "iterations": len(untraced),
            "wall_s_samples": [r["wall"] for r in untraced],
            "setup_s_samples": setup}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
