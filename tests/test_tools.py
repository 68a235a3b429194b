"""The package imports numpy alone, and tools/same_numbers.py runs its
catalogue and tells equal entries from differing ones."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import shlattice

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(shlattice.__file__).resolve().parent.parent


def load_same_numbers():
    spec = importlib.util.spec_from_file_location("same_numbers", ROOT / "tools" / "same_numbers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_loads_no_scipy():
    # every CLI process pays for what `import shlattice` loads
    code = ("import shlattice, shlattice.cli, sys; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert done.stdout.strip() == "", f"scipy modules loaded: {done.stdout.strip()}"


def test_same_numbers_of_the_tree_against_itself():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "same_numbers.py"),
                           "--against-tree", str(ROOT), "--tiny"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["entry", "result"]
    names = [row.split()[0] for row in rows]
    assert len(names) == 65 and "ladder.slope" in names and "csv.dispersion" in names
    assert "model.odd.real.n33" in names and "model.odd.full.n17" in names
    assert "compare.g06p2.model" in names
    assert "ladder.errors" in names and "ladder.model" in names and "compare.model" in names
    assert "ladder.oracle" in names and "model.long.times" in names
    assert "extract_amplitudes.n4096.periodic.a" in names
    assert "manifest.dispersion.config" in names and "growth_rate_fine" in names
    assert "growth_rate.floor" in names
    assert all(row.split()[1:] == ["equal"] for row in rows), done.stdout


def test_difference_reports_the_largest_deltas():
    tool = load_same_numbers()
    a = np.array([1.0, -2.0, 4.0])
    assert tool.difference(a, a.copy(), "x") == "equal"
    assert tool.difference(a, np.array([1.0, -2.0, 3.0]), "x") == "max|d| 1, rel 0.333"
    # -0.0 == 0.0, but the bytes differ
    assert tool.difference(np.array([-0.0]), np.array([0.0]), "x") == "max|d| 0, rel 0"
    # CSVs compare by bytes, then by their numeric cells
    ours = np.frombuffer(b"k,v\nupper,1.5\n", dtype=np.uint8)
    theirs = np.frombuffer(b"k,v\nupper,1.25\n", dtype=np.uint8)
    assert tool.difference(ours, theirs, "csv.x") == "max|d| 0.25, rel 0.2"
