import os
import subprocess
import sys
from pathlib import Path

import pytest

import freenoise

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv, header", [
    (["growth_exponents.py", "--n-top", "20", "--t-points", "21", "--fit-from", "8"],
     "preset,n,sup_coefficient"),
    (["covariance_convergence.py", "--cutoffs", "8,16", "--pairs", "0.7:0.4"],
     "density,n_max,t,s,coefficient_route,integral_route,abs_err"),
], ids=["growth_exponents", "covariance_convergence"])
def test_script_runs_and_writes_its_csv_header(argv, header):
    # the scripts import the package the tests import, so a removed
    # library name breaks them here rather than in someone's experiment
    package_root = str(Path(freenoise.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
