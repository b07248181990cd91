import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import tetracurves

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def capped_python():
    """Run Python source in a child process capped at 1 GiB of address
    space, so a size guard that lets a huge answer through ends there in a
    MemoryError instead of exhausting the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    def run(source: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(Path(tetracurves.__file__).parents[1]))
        return subprocess.run([sys.executable, "-c", source], env=env, capture_output=True,
                              text=True, timeout=60, preexec_fn=cap)

    return run
