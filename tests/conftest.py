import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

_SRC = Path(__file__).resolve().parents[1] / "src"
# address space of a child CLI run: enough for numpy and every
# bounded input, so an unbounded one fails fast instead of paging
_CHILD_ADDRESS_SPACE = 2 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def cli_child():
    """Run ``freenoise.cli.main`` on argv in a fresh interpreter whose
    address space is capped at 2 GiB, killed after ``timeout`` seconds.

    Returns the CompletedProcess with text stdout and stderr.  Inputs
    that might allocate or loop without bound run only this way.
    """
    def run(argv, timeout=60.0):
        env = dict(os.environ, PYTHONPATH=str(_SRC))
        return subprocess.run(
            [sys.executable, "-c", "from freenoise.cli import main; main()", *argv],
            capture_output=True, text=True, env=env, timeout=timeout,
            preexec_fn=_limit_address_space)
    return run
