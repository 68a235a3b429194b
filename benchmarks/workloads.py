"""The benchmark's workloads: inputs made from a seed, one iteration, its gates.

Each workload has

* ``inputs(seed, tiny)``: everything the program is given, made from the
  seed alone (``tiny`` shrinks it for the self-test and the warm-up);
* ``run(inputs, mode)``: one iteration, returning its outputs;
* ``check(inputs, outputs)``: one (name, passed, detail) per operation, by
  tolerance, so the gates survive changes of arithmetic order;
* ``corrupt(outputs)``: a deliberate error the gates must catch.

``in_process`` workloads are traced by the caller; ``cli`` runs each command
in a fresh interpreter (``cli_child.py``) that traces itself and reports its
summary.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import shlattice as sh
import tracing

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"


# -- ladder --------------------------------------------------------------------

class Ladder:
    """Criterion 4: lattice model against the spectral oracle on an r-ladder.

    The inputs are the criterion's own, so the seed is not used.  The gate
    holds the slope and the terminal sup-errors measured on the code that
    introduced this benchmark (relative tolerance 1%).
    """

    name = "ladder"
    in_process = True
    ops = ("ladder",)
    REF = {False: {"r_ladder": (0.04, 0.02, 0.01),
                   "errors": (1.5452125758490936e-05, 4.251767851059037e-06,
                              1.5032739287421065e-06)},
           True: {"r_ladder": (0.4, 0.2, 0.1),
                  "errors": (1.6220375132426446e-03, 7.399521811273128e-04,
                             2.2186850072029957e-04)}}
    SLOPE_MIN, REL_TOL = 0.9, 0.01

    def inputs(self, seed, tiny):
        ref = self.REF[tiny]
        params = sh.make_params(r=0.02, gamma=1.0, p=1, n_elements=16, m_samples=32)
        return {"config": sh.CompareConfig(params=params, r_ladder=ref["r_ladder"]),
                "ref": ref}

    def run(self, inp, mode):
        report = sh.compare_model_vs_direct(inp["config"])
        return {"slope": report.convergence_slope,
                "errors": [row["terminal_sup_error"] for row in report.metadata["ladder"]]}

    def check(self, inp, out):
        ref = inp["ref"]
        rel = [abs(e - r) / r for e, r in zip(out["errors"], ref["errors"])]
        ok = (out["slope"] >= self.SLOPE_MIN and len(rel) == len(ref["errors"])
              and max(rel) <= self.REL_TOL)
        return [("ladder", ok, f"slope {out['slope']:.3f}, worst error offset {max(rel):.2e}")]

    def corrupt(self, out):
        out["errors"][-1] *= 1.05


# -- walls ---------------------------------------------------------------------

class Walls:
    """Criterion 5: roll-phase selection by both wall kinds, model and oracle.

    The seed draws the initial mixed roll phase, at least 15 degrees away
    from the phases the walls lock onto.
    """

    name = "walls"
    in_process = True
    ops = ("upper", "lower")

    def inputs(self, seed, tiny):
        rng = np.random.default_rng(seed)
        phase = math.radians(90.0 * int(rng.integers(4)) + rng.uniform(15.0, 75.0))
        params = sh.make_params(r=0.05, gamma=1.0, p=1, n_elements=2,
                                m_samples=16 if tiny else 64)
        return {"params": params, "a0": np.full(2, 0.05 * np.exp(1j * phase), complex),
                "t_end": 10.0 / (8.0 / params.h ** 2 - params.r)}

    def run(self, inp, mode):
        params, t_end = inp["params"], inp["t_end"]
        out = {}
        for sign, make in ((sh.SignChoice.UPPER, sh.BoundaryForcing.even_given),
                           (sh.SignChoice.LOWER, sh.BoundaryForcing.odd_given)):
            forcing = make(0.0, 0.0, p=params.p)
            state = sh.conjugate_state(0.0, inp["a0"])
            a1 = sh.run_model(state, params, forcing, t_end, 0.05).a[-1, 0]
            grid = sh.lattice_field(state, params, periodic=False)
            field = sh.integrate_bounded(grid, params, forcing, t_end, 0.4 * grid.dx ** 2)
            oracle_a1 = sh.extract_amplitudes(field, params).a[0]
            out[sign.value] = {"re_fraction": abs(a1.real) / abs(a1),
                               "im_fraction": abs(a1.imag) / abs(a1),
                               "oracle_phase_deg": math.degrees(np.angle(oracle_a1))}
        return out

    def check(self, inp, out):
        up, low = out["upper"], out["lower"]
        up_off = min(abs(up["oracle_phase_deg"] - 90), abs(up["oracle_phase_deg"] + 90))
        low_off = min(abs(low["oracle_phase_deg"]), abs(abs(low["oracle_phase_deg"]) - 180))
        return [("upper", up["re_fraction"] <= 0.05 and up_off <= 10.0,
                 f"|Re|/|a| {up['re_fraction']:.2e}, oracle {up_off:.2f} deg off"),
                ("lower", low["im_fraction"] <= 0.05 and low_off <= 10.0,
                 f"|Im|/|a| {low['im_fraction']:.2e}, oracle {low_off:.2f} deg off")]

    def corrupt(self, out):
        for kind in out.values():
            kind["oracle_phase_deg"] += 45.0


# -- wide ----------------------------------------------------------------------

def _round_trip_kernels():
    ref = json.loads(REFERENCE.read_text())["round_trip"]
    return {key: {unit: np.array(m)[..., 0] + 1j * np.array(m)[..., 1]
                  for unit, m in ref[key].items()} for key in ("periodic", "bounded")}


def predicted_round_trip(a, kernels, periodic):
    """Amplitudes that lattice_field -> extract_amplitudes returns for a
    real-sector state, predicted from stored impulse responses.

    The round trip is real-linear in ``a`` and couples an element only to
    near neighbours, so the responses of an 8-element lattice to a real and
    an imaginary unit impulse fix it for any size: interior columns take
    column 4 of the stored responses, and on a bounded lattice the three
    columns at each end take their own.
    """
    k = kernels["periodic" if periodic else "bounded"]
    size = k["re"].shape[0]
    n = len(a)
    cols = np.arange(n)
    small = np.full(n, size // 2)
    if not periodic:
        small = np.where(cols < 3, cols, np.where(cols >= n - 3, cols - n + size, small))
    out = np.zeros(n, complex)
    for d in range(-3, 4):
        rows, srow = cols + d, small + d
        if periodic:
            rows, srow = rows % n, srow % size
            ok = np.ones(n, dtype=bool)
        else:
            ok = (srow >= 0) & (srow < size) & (rows >= 0) & (rows < n)
        c = small[ok]
        out[rows[ok]] += (a.real[ok] * k["re"][srow[ok], c]
                          + a.imag[ok] * k["im"][srow[ok], c])
    return out


def make_reference() -> dict:
    """Impulse responses of the round trip on an 8-element lattice at the
    workload's resolution (run this module as a script to rewrite them)."""
    params = sh.make_params(r=0.0, gamma=1.0, p=1, n_elements=8, m_samples=32)
    out = {}
    for periodic, key in ((True, "periodic"), (False, "bounded")):
        out[key] = {}
        for unit, name in ((1.0, "re"), (1j, "im")):
            cols = []
            for j in range(8):
                a = np.zeros(8, complex)
                a[j] = unit
                grid = sh.lattice_field(sh.conjugate_state(0.0, a), params, periodic=periodic)
                cols.append(sh.extract_amplitudes(grid, params).a)
            m = np.array(cols).T
            out[key][name] = np.stack([m.real, m.imag], axis=-1).tolist()
    return {"round_trip": out}


def smooth_state(rng, n, r):
    """Slowly modulated rolls: three random amplitude modes, a random
    overall phase and one random phase mode, all long-wave on the lattice."""
    x = 2.0 * np.pi * np.arange(n) / n
    amp = np.ones(n)
    for k in rng.integers(1, 9, size=3):
        amp += 0.2 / 3.0 * rng.uniform(0.5, 1.0) * np.cos(k * x + rng.uniform(0, 2 * np.pi))
    phase = rng.uniform(0, 2 * np.pi) + 0.5 * np.sin(int(rng.integers(1, 5)) * x
                                                     + rng.uniform(0, 2 * np.pi))
    return math.sqrt(r / 3.0) * amp * np.exp(1j * phase)


class Wide:
    """A large lattice, where work per element outweighs per-call overhead.

    A periodic and an even-walled model run from a seeded real-sector
    state, the lattice_field -> extract_amplitudes round trip on a periodic
    and a bounded grid, and a short spectral oracle run continuing the
    periodic field.
    """

    name = "wide"
    in_process = True
    ops = ("periodic", "walled")
    DT_MODEL, STRIDE, DT_ORACLE, T_ORACLE = 0.1, 10, 0.05, 2.0
    # Oracle minus model after T_ORACLE, relative to sqrt(r/3), by size
    # (full, tiny): measured up to 6e-5 and 3e-3 on the first seeds.
    ORACLE_TOL = {False: 1e-3, True: 2e-2}

    def inputs(self, seed, tiny):
        n = 64 if tiny else 4096
        params = sh.make_params(r=0.05, gamma=1.0, p=1, n_elements=n, m_samples=32)
        return {"params": params, "a0": smooth_state(np.random.default_rng(seed), n, params.r),
                "t_end": 10.0 if tiny else 100.0, "kernels": _round_trip_kernels(),
                "oracle_tol": self.ORACLE_TOL[tiny]}

    def run(self, inp, mode):
        params, t_end = inp["params"], inp["t_end"]
        state = sh.conjugate_state(0.0, inp["a0"])
        out = {}
        for key, forcing in (("periodic", sh.BoundaryForcing.periodic()),
                             ("walled", sh.BoundaryForcing.even_given(0.0, 0.0, p=1))):
            traj = sh.run_model(state, params, forcing, t_end, self.DT_MODEL,
                                sample_stride=self.STRIDE)
            grid = sh.lattice_field(state, params, periodic=key == "periodic")
            out[key] = {"final": traj.final, "traj": traj, "grid": grid,
                        "round_trip": sh.extract_amplitudes(grid, params)}
        grid = out["periodic"]["grid"]
        n_steps = round(self.T_ORACLE / self.DT_ORACLE)
        stepper = sh.SpectralStepper(len(grid.u), grid.length, params.r, self.DT_ORACLE)
        v = stepper.run(stepper.to_spectral(grid.u), n_steps)
        field = sh.FieldGrid(grid.x0, grid.dx, stepper.to_physical(v), True)
        out["periodic"]["oracle"] = sh.extract_amplitudes(field, params).a
        return out

    def check(self, inp, out):
        a0, scale = inp["a0"], math.sqrt(inp["params"].r / 3.0)
        results = []
        for key in self.ops:
            o = out[key]
            final = o["final"]
            finite = bool(np.all(np.isfinite(final.a)) and np.all(np.isfinite(final.b)))
            drift = sh.reality_check(final)
            expect = predicted_round_trip(a0, inp["kernels"], key == "periodic")
            rt = o["round_trip"]
            rt_err = max(np.max(np.abs(rt.a - expect)), np.max(np.abs(rt.b - np.conj(expect))))
            ok = finite and drift <= 1e-10 and rt_err <= 1e-9 * scale
            detail = f"drift {drift:.1e}, round trip {rt_err / scale:.1e}"
            if key == "periodic":
                sample = round(self.T_ORACLE / (self.DT_MODEL * self.STRIDE))
                gap = np.max(np.abs(o["oracle"] - o["traj"].a[sample])) / scale
                ok = ok and bool(gap <= inp["oracle_tol"])
                detail += f", oracle gap {gap:.1e}"
            results.append((key, bool(ok), detail))
        return results

    def corrupt(self, out):
        for key in self.ops:
            out[key]["round_trip"].a[len(out[key]["round_trip"].a) // 2] += 1e-6


# -- cli -----------------------------------------------------------------------

# README commands (all but `compare`, which is the ladder), with the CSV
# header each writes and its row count at full and tiny size.
CLI_COMMANDS = (
    ("dispersion", ["dispersion", "--r", "0.1", "--k-min", "0.5", "--k-max", "1.5",
                    "--k-steps", "21"], ["--k-steps", "5"],
     ["k", "lambda_theory", "lambda_measured"], (21, 5)),
    ("boundary-select", ["boundary-select", "--sign", "upper", "--r", "0.05",
                         "--n-elements", "2", "--with-oracle"], ["--t-end", "10"],
     ["t", "re_fraction", "im_fraction"], (220, 201)),
    ("boundary-equilibrium", ["boundary-equilibrium", "--alpha", "0.1", "--beta", "0",
                              "--t-end", "300"], ["--t-end", "30"],
     ["t", "re_a1", "im_a1", "predicted_re_a1"], (401, 601)),
    ("boundary-profiles", ["boundary-profiles", "--p", "1", "--sign", "upper"], [],
     ["x", "alpha_profile", "beta_profile", "alpha_profile_xx", "beta_profile_xx"],
     (161, 161)),
    ("simulate-direct", ["simulate-direct", "--scheme", "spectral-etd", "--r", "0.3",
                         "--t-end", "50"], ["--t-end", "5"], ["x", "u"], (256, 256)),
    ("simulate-model", ["simulate-model", "--kind", "periodic", "--r", "0.05",
                        "--t-end", "200"], ["--t-end", "20"],
     ["t"] + [f"{part}_a{j}" for j in range(1, 9) for part in ("re", "im")], (401, 41)),
)


class Cli:
    """Every README command as a fresh ``shlattice.cli`` process, one after
    another, each into a fresh output directory.  The seed is passed as
    ``--seed`` (it sets the random initial noise of simulate-direct)."""

    name = "cli"
    in_process = False
    ops = tuple(c[0] for c in CLI_COMMANDS)
    WORK = BENCH.parent / ".bench_work" / "cli"
    DISPERSION_TOL = 1e-5

    def inputs(self, seed, tiny):
        cmds = []
        for label, argv, tiny_argv, header, rows in CLI_COMMANDS:
            cmds.append({"label": label, "argv": argv + (tiny_argv if tiny else [])
                         + ["--seed", str(seed)], "header": header, "rows": rows[tiny]})
        return {"commands": cmds}

    def run(self, inp, mode):
        child = BENCH / "cli_child.py"
        work = self.WORK / str(os.getpid())
        summary, rss_kb, out = tracing.empty_summary(), 0, {}
        for cmd in inp["commands"]:
            out_dir = work / cmd["label"]
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            stats = work / f"{cmd['label']}.summary.json"
            stats.unlink(missing_ok=True)
            argv = [sys.executable, str(child), mode, str(stats), *cmd["argv"],
                    "--output-dir", str(out_dir)]
            code, child_rss = _run_child(argv, work / f"{cmd['label']}.stderr")
            rss_kb = max(rss_kb, child_rss)
            if stats.exists():
                summary = tracing.merge(summary, json.loads(stats.read_text()))
            csvs = sorted(out_dir.glob("*.csv"))
            rows = []
            if csvs:
                with open(csvs[-1], newline="") as fh:
                    rows = list(csv.reader(fh))
            out[cmd["label"]] = {"code": code, "rows": rows,
                                 "bytes": sum(p.stat().st_size for p in out_dir.iterdir())}
        shutil.rmtree(work, ignore_errors=True)
        return {"commands": out, "summary": summary, "child_rss_kb": rss_kb}

    def check(self, inp, out):
        results = []
        for cmd in inp["commands"]:
            got = out["commands"].get(cmd["label"], {"code": None, "rows": []})
            rows = got["rows"]
            ok = (got["code"] == 0 and bool(rows) and rows[0] == cmd["header"]
                  and len(rows) - 1 == cmd["rows"])
            detail = f"exit {got['code']}, {max(len(rows) - 1, 0)} rows"
            if ok:
                try:
                    values = np.array(rows[1:], dtype=float)
                except ValueError:
                    values = np.array([[np.nan]])
                ok = bool(np.all(np.isfinite(values)))
                if cmd["label"] == "dispersion":
                    err = float(np.max(np.abs(values[:, 2] - values[:, 1])))
                    ok = ok and err <= self.DISPERSION_TOL
                    detail += f", dispersion error {err:.1e}"
            results.append((cmd["label"], ok, detail))
        return results

    def corrupt(self, out):
        for got in out["commands"].values():
            del got["rows"][-1:]


def _run_child(argv, log: Path, timeout: float = 60.0) -> tuple[int, int]:
    """Run one process to its end, killing it after `timeout` seconds;
    (exit code, its peak RSS in KiB)."""
    with open(log, "w") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print(f"command {argv[4:]} exited {code}:\n{log.read_text()}", file=sys.stderr)
    return code, usage.ru_maxrss


WORKLOADS = {wl.name: wl for wl in (Ladder(), Walls(), Wide(), Cli())}


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(make_reference(), indent=1) + "\n")
    print(f"wrote {REFERENCE}")
