"""The traced benchmark wraps program functions and methods by name.

bench/instrument.py patches names such as `StarProduct.mu_pair` and
`hochschild.is_associative_cochain`; a refactor that removes one of them
must fail here, not only in a traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tracer_installs_on_the_program():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import instrument; instrument.install(instrument.Tracer())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
