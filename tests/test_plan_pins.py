"""Plan JSON pinned byte for byte, per instance.

Each entry is the SHA-256 of ``plan_to_json(build_plan(...))`` for one of
the five worked examples at seed 3.  Masks are drawn by rejection on a
rank test, so these pins also fix every rank result the sampler sees:
a change to the elimination kernel that alters one rank alters a plan.

Regenerate the table with ``PYTHONPATH=src python tests/test_plan_pins.py``
only when a change is meant to alter plan output.
"""

from hashlib import sha256

import pytest

import coded_pir as cp
from conftest import FACTORIES

PLAN_SEED = 3


def plan_digest(name):
    plan = cp.build_plan(FACTORIES[name](seed=PLAN_SEED))
    return sha256(cp.plan_to_json(plan).encode()).hexdigest()


PINS = {'byzantine': '335329bf51859e923d239364a5ba395341d56f32e06a49ab6493b40eeb39b35e',
        'multifile': '144328e7b7533e307f28f0fa7e2bf01bdd287abbb47306a9903c96ee2d22652b',
        'pattern': 'f8823f3b071050b75834318f5c7c70a722503b22f2e81b2b8b005bbeb282922b',
        'prototype': 'e68ab35b6e3f4c1cc57f1abffd0f088b2f16df41ca4250dc5a730bf1114b398e',
        'robust': '1104d8c6f142164e3f15e8be2262922104121027d3c8a56a893710de373a213a'}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_plan_json_matches_pin(name):
    assert plan_digest(name) == PINS[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: plan_digest(name) for name in sorted(FACTORIES)}, width=100)
