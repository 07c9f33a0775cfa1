"""Plan bookkeeping pinned over the whole small feasible space, per variant.

Each entry is the SHA-256 of the v1 plan JSON (``oracles.plan_json``),
without its ``masks``, ``atom_coeffs`` and ``mix_matrix``, of every
feasible parameter set with N <= 6, M <= 3, L <= 120
(``feasible.SMALL_FEASIBLE``), one line per plan.
Single-file variants are built once per desired file; the pattern entry
covers the pentagon instance with each desired file.  What is left is
everything the parameters fix on their own: alpha, beta, l_rows, the
assisting array, the blocks, the groups and the code shapes.

Regenerate the table with ``PYTHONPATH=src:tests python tests/test_bookkeeping_pins.py``
only when a change is meant to alter plan bookkeeping.
"""

import json
from dataclasses import replace
from hashlib import sha256

import pytest

import coded_pir as cp
from conftest import pattern_params
from feasible import SMALL_FEASIBLE
from oracles import plan_json

RANDOM_FIELDS = ("masks", "atom_coeffs", "mix_matrix")


def parameter_sets(variant):
    if variant == "pattern":
        return [pattern_params(seed=0, desired=(f,)) for f in range(2)]
    out = []
    for params in SMALL_FEASIBLE[variant]:
        if params.variant is cp.Variant.MULTI_FILE:
            out.append(params)
        else:
            out.extend(replace(params, desired=(f,)) for f in range(params.n_files))
    return out


def bookkeeping(params):
    doc = json.loads(plan_json(cp.build_plan(params)))
    for key in RANDOM_FIELDS:
        del doc[key]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def bookkeeping_digest(variant):
    text = "\n".join(bookkeeping(params) for params in parameter_sets(variant))
    return sha256(text.encode()).hexdigest()


VARIANTS = sorted(SMALL_FEASIBLE) + ["pattern"]

PINS = {'byzantine': 'ecb06ac725fffc31af8f267cc58b37451856c42bd501b44bb048ec2ee44b2716',
        'multifile': 'ea4821740f9900b0dbfcf0f7fd935b5d5339ec9710e2f640c1534def9bb37429',
        'pattern': '7154cb63456d398a51b63f915fd6c11ccaaf4679a81d29657b1fe9d59a021ebe',
        'prototype': '4999ee22a3dfd4571f85a0bc5303a8e7eb9e1339ab3038d1055ee53c1aeea6a9',
        'robust': '34d8e59bfe219006773cd013a399f0b3f1ebcfc96ae073c83966d75f9fb9cd8d'}


@pytest.mark.parametrize("variant", VARIANTS)
def test_plan_bookkeeping_matches_pin(variant):
    assert bookkeeping_digest(variant) == PINS[variant]


if __name__ == "__main__":
    import pprint

    pprint.pprint({variant: bookkeeping_digest(variant) for variant in VARIANTS}, width=100)
