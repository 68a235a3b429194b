#!/usr/bin/env python3
"""Self-test of the benchmark (about two minutes on 2 CPUs):

    python3 benchmarks/selftest.py

* every workload runs at tiny size, untraced and traced, passes its gates
  and prints exactly the metrics BENCHMARK.json names, with their units;
* a deliberately corrupted output counts as failed;
* the tracer puts back every binding it replaced;
* without the sources the benchmark exits non-zero and prints no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done, lines


def result(workload, *extra, trace=0):
    done, lines = run("--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--size", "tiny", *extra)
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited {done.returncode}:\n{done.stderr}")
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    return out


def check_metrics(workload, out, spec_key):
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want, f"{workload} {spec_key}: {sorted(set(got) ^ set(want))} differ"
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), (workload, name, m)


def check_workloads():
    for wl in (w["name"] for w in SPEC["workloads"]):
        plain = result(wl)
        assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1, plain
        check_metrics(wl, plain, "end_to_end")
        traced = result(wl, trace=1)
        assert traced["correct"], traced
        check_metrics(wl, traced, "per_layer")
        bad = result(wl, "--corrupt")
        assert not bad["correct"] and bad["failed"] == bad["attempted"] >= 1, bad
        print(f"ok  {wl}: tiny run passes, metrics complete, corruption caught")


def check_restore():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import shlattice.cli  # noqa: F401  (load every layer)
    import tracing

    def bindings():
        found = {}
        for name, mod in sys.modules.items():
            if name == "shlattice" or name.startswith("shlattice."):
                for key, value in vars(mod).items():
                    found[(name, key)] = value
                    if isinstance(value, type):
                        for attr, member in vars(value).items():
                            found[(name, key, attr)] = member
                    elif isinstance(value, dict):
                        for k2, v2 in value.items():
                            found[(name, key, "[]", k2)] = v2
        return found

    before = bindings()
    for full in (True, False):
        tracer = tracing.Tracer(full=full)
        tracer.install()
        assert bindings() != before, "nothing was wrapped"
        tracer.uninstall()
        after = bindings()
        changed = [k for k in before if after.get(k) is not before[k]]
        assert not changed and after.keys() == before.keys(), changed
    print("ok  tracer restores every binding it replaced")


def check_without_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done, lines = run("--workload", "ladder", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        assert done.returncode != 0, done
        assert not any(line.startswith("{") for line in lines), lines
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without the sources: exit code non-zero, no result")


if __name__ == "__main__":
    check_restore()
    check_without_sources()
    check_workloads()
    print("selftest passed")
