"""The package runs on numpy alone: neither importing it nor a Szego
integral by quadrature loads scipy (the tests use scipy for oracles)."""

import os
import subprocess
import sys

import chebpot


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(chebpot.__file__)))
    code = (
        "import sys, chebpot\n"
        "before = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "chebpot.szego_integral(chebpot.make_set([(-1, 1)]), chebpot.exp_inv_abs_weight(0.2))\n"
        "after = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(before, after)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] []"
