"""Plan JSON pinned byte for byte, per instance, in both schema versions.

Each ``PINS`` entry is the SHA-256 of the v1 document of
``build_plan(...)``, written by the list-based oracle
``oracles.plan_json``, for one of the five worked examples at seed 3;
``V2_PINS`` holds the SHA-256 of ``plan_to_json`` (v2) of the same plan.
Masks are drawn by rejection on a rank test, so these pins also fix
every rank result the sampler sees: a change to the elimination kernel
that alters one rank alters a plan.  More pins fix both documents of a
larger plan (the benchmark's ``scale`` instance, 12 MB in v1) and the
JSON of a random database, all first computed by ``json.dumps`` of
Python lists.

Regenerate the table with ``PYTHONPATH=src:tests python tests/test_plan_pins.py``
only when a change is meant to alter plan output.
"""

from hashlib import sha256

import pytest

import coded_pir as cp
from conftest import FACTORIES
from oracles import plan_json

PLAN_SEED = 3


def digests(plan):
    """SHA-256 of the plan's v1 (oracle) and v2 (library) documents."""
    return tuple(sha256(text.encode()).hexdigest() for text in (plan_json(plan), cp.plan_to_json(plan)))


def plan_digests(name):
    return digests(cp.build_plan(FACTORIES[name](seed=PLAN_SEED)))


PINS = {'byzantine': '335329bf51859e923d239364a5ba395341d56f32e06a49ab6493b40eeb39b35e',
        'multifile': '144328e7b7533e307f28f0fa7e2bf01bdd287abbb47306a9903c96ee2d22652b',
        'pattern': 'f8823f3b071050b75834318f5c7c70a722503b22f2e81b2b8b005bbeb282922b',
        'prototype': 'e68ab35b6e3f4c1cc57f1abffd0f088b2f16df41ca4250dc5a730bf1114b398e',
        'robust': '1104d8c6f142164e3f15e8be2262922104121027d3c8a56a893710de373a213a'}

V2_PINS = {'byzantine': 'f472c0344e2a01bf9026d09b03fec737494771f0b7d43257f71fd692e76fdb45',
           'multifile': '7c93def40ea272bf3f3b4d2f83737aa2e8a057e0698d2f829792c69838f30536',
           'pattern': 'd9250f7843cedba6915db403722fa082d1287d5e1f31484eeb2d64ed56d70f79',
           'prototype': '6682f60a9e0d372dda3998b5cd4757074b4f7c5a3a852418a8c7dcd73db078bd',
           'robust': 'f34a787ee8d372622c7b8798bfb9587cf4f5506bd1a94e0629cf300cffcb6aef'}


# Prototype N=4, K=2, T=1, M=7 (L=384): the benchmark's scale plan.
SCALE_PARAMS = dict(variant="prototype", n_servers=4, code_dim=2, n_files=7,
                    desired=(0,), collusion_size=1, seed=PLAN_SEED)


def scale_plan_digests():
    return digests(cp.build_plan(cp.SchemeParams(**SCALE_PARAMS)))


def database_digest():
    db = cp.random_database(3, 216, 2, 65537, seed=PLAN_SEED)
    return sha256(cp.database_to_json(db).encode()).hexdigest()


SCALE_PIN = "9376c7d28a1dd4f9b1a450fd56826de0198664014d470c23b828399d74af64c6"
V2_SCALE_PIN = "dcf897e4dd6dca7840285bf344b14628d81e199f4dfd7954009bfa600854ef32"
DATABASE_PIN = "51e6c0262c74c4803a1b1dc76e309aa2428e7ddcb9d8228f74aa93b3e1ee286b"


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_plan_json_matches_pin(name):
    assert plan_digests(name) == (PINS[name], V2_PINS[name])


def test_scale_plan_json_matches_pin():
    assert scale_plan_digests() == (SCALE_PIN, V2_SCALE_PIN)


def test_database_json_matches_pin():
    assert database_digest() == DATABASE_PIN


if __name__ == "__main__":
    import pprint

    table = {name: plan_digests(name) for name in sorted(FACTORIES)}
    pprint.pprint({name: v1 for name, (v1, _) in table.items()}, width=100)
    pprint.pprint({name: v2 for name, (_, v2) in table.items()}, width=100)
    print("SCALE_PIN, V2_SCALE_PIN =", scale_plan_digests())
    print("DATABASE_PIN =", repr(database_digest()))
