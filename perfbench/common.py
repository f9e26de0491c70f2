"""Process helpers shared by the orchestrator and the workload processes."""

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PYTHON = sys.executable
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the package's modules, one layer each
LAYERS = ("realset", "weights", "potential", "extremal", "ensets", "bounds", "cli")


def child_env() -> dict:
    """Environment of every child: sources from the checkout, BLAS on 1 thread."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def spawn_wait(argv, env, stderr_path):
    """Run argv to completion from the checkout root.

    Returns (exit code, wall seconds, peak RSS in MB).  The RSS comes from
    the child's own rusage (wait4), so it is the peak of that process and
    the descendants it waited for.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0

