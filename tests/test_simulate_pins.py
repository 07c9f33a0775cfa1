"""Output of the ``simulate`` command pinned byte for byte, per run.

Each entry holds the exit code, the SHA-256 of stdout (the JSON report)
and the SHA-256 of stderr (the one-line summary) of ``coded-pir simulate``
run in process: the five worked examples at seed 3 fault-free, the
robust and Byzantine examples with ``--sweep-adversaries``, and the
Byzantine example with two liars, one more than it corrects.

Regenerate the table with ``PYTHONPATH=src python tests/test_simulate_pins.py``
only when a change is meant to alter simulate output.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256

import pytest

from coded_pir import cli
from conftest import FACTORIES, cli_argv

SIMULATE_SEED = 3

RUNS = {
    **{name: (name, []) for name in FACTORIES},
    "robust-sweep": ("robust", ["--sweep-adversaries"]),
    "byzantine-sweep": ("byzantine", ["--sweep-adversaries"]),
    "byzantine-over-budget": ("byzantine", ["--adv-byzantine", "0,1"]),
}


def run_simulate(run):
    """(exit code, stdout, stderr) of one simulate run."""
    name, extra = RUNS[run]
    params = FACTORIES[name](seed=SIMULATE_SEED)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        argv = cli_argv("simulate", params, workdir) + extra
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(code, out, err):
    return (code, sha256(out.encode()).hexdigest(), sha256(err.encode()).hexdigest())


PINS = {
    "byzantine": (
        0,
        "12e813c77a6ff00052b3c6fcd5d8e721901f5b798fca5e7694e495b3132162a4",
        "2f7be0ae105c96d4321c600194dd8609928ac36f1f3a3f190051d09528e6b44d",
    ),
    "byzantine-over-budget": (
        1,
        "784fb3709d0fe0933717aefcb56d5ff479ba4071610707a0b5f4f0cc7f4995be",
        "410e772eb5d68bd21c3b26d8c00a54c0de5c2166c5254881e2909362398ff570",
    ),
    "byzantine-sweep": (
        0,
        "f779011d47c3456e97ca8ca3771f6d7ef1e7766bbc365d3fa654105c69740cb5",
        "57f641aa021a1439267b2352b34a83a7780db118163787a48438a5f07a274560",
    ),
    "multifile": (
        0,
        "305a9f1b9e04febdb49dcf56f6028f3e87bc8c6ffbf081d8156196136491b6a8",
        "3307416e44388816f98708c905a592cd67280299dfca75b78e6405eb374f46e4",
    ),
    "pattern": (
        0,
        "93bb2c94aadcc2d7ab382d839eb518c6e7689f9907f0480cfb56f0e8192fe97b",
        "fa0a9b8f6c0c0db0a64d79253ad6e9969a4fc153b0bddc4fe10b8681f9bae3c9",
    ),
    "prototype": (
        0,
        "80c3f952fb92ee8701ee9d9a73c0f218d58895df380f0beec03af2f696d3d8d4",
        "1d96e456e0a5d29d6160f8c8fd455a779fd15f2a07923cc7ab8af448318eacc2",
    ),
    "robust": (
        0,
        "d6afbd431d627d0fbd9c983154e6cefe10d94fddde46ca82f18a04ceb5bf349a",
        "85671123fd8647430be076657f5d634f10b2cc3ebb7f0e5c9a7f62df7046f1c9",
    ),
    "robust-sweep": (
        0,
        "77361e1fa42c11a0d3ace796d8817cd74eb678dd859689c17347833ad33a3f2b",
        "62741d5307168011c65c86d7c73320b294273cd52b551451a7593ea87818d411",
    ),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_simulate_output_matches_pin(run):
    assert digest(*run_simulate(run)) == PINS[run]


if __name__ == "__main__":
    import pprint

    pprint.pprint({run: digest(*run_simulate(run)) for run in sorted(RUNS)}, width=100)
