"""Smoke tests for scripts/: each one runs, in a subprocess, against the package.

coefficients_table.py runs in full (it is cheap); the sweep scripts only
parse their arguments, which still imports every name they use.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fput2d

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(fput2d.__file__).resolve().parents[1])


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_coefficients_table_runs():
    out = run_script("coefficients_table.py", "--steps", "4")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1 + 5 * 5 - 1  # header, then every carrier but (0, 0)
    assert lines[0].split()[:2] == ["k0/pi", "l0/pi"]


@pytest.mark.parametrize("name", ["residual_orders.py", "run_convergence_sweeps.py"])
def test_sweep_script_help(name):
    out = run_script(name, "--help")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage:")
