"""Output of the ``audit`` command pinned byte for byte, per instance.

Each entry holds the exit code, the SHA-256 of stdout (the JSON report)
and the SHA-256 of stderr (one pass/FAIL line per collusion set, plus
the warnings of ``--all-pairs``) of ``coded-pir audit`` on one of the
five worked examples at seed 3, run in process.  The pentagon run with
``--all-pairs`` also pins its sets outside the pattern and its warning
lines in readable form.

Regenerate the table with ``PYTHONPATH=src python tests/test_audit_pins.py``
only when a change is meant to alter audit output.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256

import pytest

from coded_pir import cli
from conftest import FACTORIES, cli_argv

AUDIT_SEED = 3


def run_audit(name, all_pairs=False):
    """(exit code, stdout, stderr) of the audit command on one instance."""
    params = FACTORIES[name](seed=AUDIT_SEED)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        argv = cli_argv("audit", params, workdir) + (["--all-pairs"] if all_pairs else [])
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(code, out, err):
    return (code, sha256(out.encode()).hexdigest(), sha256(err.encode()).hexdigest())


PINS = {
    "byzantine": (
        0,
        "f9953ccba4a83a86b80d784a1d63fb8b7cd876eea60391b4e0a024eecba850de",
        "836101bc77e0332f5f8c4770af05792bbc47b5d773b158e1cc3212029544fe88",
    ),
    "multifile": (
        0,
        "f2d9f329339a0d99fd98f00905f013cecdb9eb7745839c6f0ad7d0d9fd8e5f1c",
        "1a237d2ad9d624a31274ee45e40cfcd647d850ea09002aeffb83e5b091757173",
    ),
    "pattern": (
        0,
        "006a3c82aead69cbe4a9231e51b8c1f431807a9125274d89e2fa19af08080c5b",
        "1bae0cac617005f4ae278a819177427bf8182f79adb4c27d70c36530e6d8985f",
    ),
    "prototype": (
        0,
        "729fe9f0772018102253e35e70bc950abfbba65c01f131ae09838addbba0f5f8",
        "478e0d15ddfe1957438202b8601c927b744110945357dd3b4df5bdd38f6a7168",
    ),
    "robust": (
        0,
        "77229ccb8f5d9b5aca2ee4240c19567eb7a0918b4c34f5c5febc26d0b4585ef5",
        "f40193b798a64320daa251f5404bc26453d106d37cb24f56590be89b90d70485",
    ),
}

PENTAGON_ALL_PAIRS_PIN = (
    0,
    "8d5a9074981f7f5bc33f974e09a221a97069b97f114c8762474ee8fb2abed8f1",
    "60225fa1192b5a7c3999f133fc932c7a48adad2a1d328b6f56730fbad29f479a",
)

# Every pair outside the pentagon sees 25 rows of the desired file and
# 20 of the other: the pattern does not protect it, and the audit says so.
PENTAGON_OUTSIDE_PATTERN = [
    ((0, 2), (25, 20), 25, False),
    ((0, 3), (25, 20), 25, False),
    ((1, 3), (25, 20), 25, False),
    ((1, 4), (25, 20), 25, False),
    ((2, 4), (25, 20), 25, False),
]

PENTAGON_WARNINGS = [
    f"warning: non-pattern set {pair} distinguishes files (ranks (25, 20)); "
    "the pattern does not protect it"
    for pair, *_ in PENTAGON_OUTSIDE_PATTERN
]


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_audit_output_matches_pin(name):
    assert digest(*run_audit(name)) == PINS[name]


def outside_pattern(out):
    return [
        (tuple(a["collusion_set"]), tuple(a["per_file_rank"]), a["expected_rank"], a["pass"])
        for a in json.loads(out)["outside_pattern"]
    ]


def warnings(err):
    return [line for line in err.splitlines() if line.startswith("warning")]


def test_pentagon_all_pairs_matches_pin():
    code, out, err = run_audit("pattern", all_pairs=True)
    assert digest(code, out, err) == PENTAGON_ALL_PAIRS_PIN
    assert outside_pattern(out) == PENTAGON_OUTSIDE_PATTERN
    assert warnings(err) == PENTAGON_WARNINGS


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: digest(*run_audit(name)) for name in sorted(FACTORIES)}, width=100)
    code, out, err = run_audit("pattern", all_pairs=True)
    print(digest(code, out, err))
    pprint.pprint(outside_pattern(out))
    pprint.pprint(warnings(err), width=120)
