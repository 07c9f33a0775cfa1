"""The demos run to completion and print exactly what they printed before.

Each demo runs in its own interpreter with ``src`` on the path; the test
compares the SHA-256 of its stdout with a pin.  Every demo is seeded, so
its output is fixed byte for byte.

Regenerate the table with ``PYTHONPATH=src python tests/test_demos.py``
only when a change is meant to alter what a demo prints.
"""

import os
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_demo(name):
    """(exit code, SHA-256 of stdout) of one demo."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    return done.returncode, sha256(done.stdout).hexdigest()


PINS = {
    "01_basic_retrieval.py": "977d420a2c8c93383d8298fa74920c6405e6709f5edcce4bd2bc9641f4f82bb8",
    "02_robust_erasures.py": "ddbbbf3f6d12378943d16e2c3024d64f8445f97e311543e7936c8dd020ed3353",
    "03_byzantine_errors.py": "ed90e358a525ed9bc6dcad33320e396e501e0bf301bfaebece2c140012e0fd1a",
    "04_multi_retrieval.py": "b9c744320d79d3c23d1994526595cb1149c6e926c03f967e6b880c5ca0a1b606",
    "05_collusion_patterns.py": "6e3386c811c64029c6f9d56417494ef5d4c462a6828dda030dc57fc0fc370f48",
}


def test_every_demo_is_pinned():
    assert DEMOS == sorted(PINS)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_pin(name):
    assert run_demo(name) == (0, PINS[name])


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: run_demo(name)[1] for name in DEMOS}, width=100)
