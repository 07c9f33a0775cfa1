"""Plan JSON pinned byte for byte, per instance.

Each entry is the SHA-256 of ``plan_to_json(build_plan(...))`` for one of
the five worked examples at seed 3.  Masks are drawn by rejection on a
rank test, so these pins also fix every rank result the sampler sees:
a change to the elimination kernel that alters one rank alters a plan.
Two more pins fix the JSON of a larger plan (the benchmark's ``scale``
instance, 12 MB) and of a random database, both first computed by
``json.dumps`` of Python lists.

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


# Prototype N=4, K=2, T=1, M=7 (L=384): the benchmark's scale plan.
SCALE_PARAMS = dict(variant="prototype", n_servers=4, code_dim=2, n_files=7,
                    desired=(0,), collusion_size=1, seed=PLAN_SEED)


def scale_plan_digest():
    plan = cp.build_plan(cp.SchemeParams(**SCALE_PARAMS))
    return sha256(cp.plan_to_json(plan).encode()).hexdigest()


def database_digest():
    db = cp.random_database(3, 216, 2, 65537, seed=PLAN_SEED)
    return sha256(cp.database_to_json(db).encode()).hexdigest()


SCALE_PIN = "9376c7d28a1dd4f9b1a450fd56826de0198664014d470c23b828399d74af64c6"
DATABASE_PIN = "51e6c0262c74c4803a1b1dc76e309aa2428e7ddcb9d8228f74aa93b3e1ee286b"


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_plan_json_matches_pin(name):
    assert plan_digest(name) == PINS[name]


def test_scale_plan_json_matches_pin():
    assert scale_plan_digest() == SCALE_PIN


def test_database_json_matches_pin():
    assert database_digest() == DATABASE_PIN


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: plan_digest(name) for name in sorted(FACTORIES)}, width=100)
    print("SCALE_PIN =", repr(scale_plan_digest()))
    print("DATABASE_PIN =", repr(database_digest()))
