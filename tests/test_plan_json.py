"""Plan and database JSON: v2 plan documents against their list-based
oracle, and the loader's refusals."""

import base64
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import coded_pir as cp
from coded_pir import plans as plans_module
from conftest import FACTORIES, multifile_params, robust_params
from feasible import feasible_params
from oracles import atom_coeffs, plan_json_v2
from test_plan_pins import SCALE_PARAMS

# --- the writers against json.dumps of Python lists ------------------------------


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("seed", [3, 8, 21])
def test_plan_to_json_matches_list_document(name, seed):
    plan = cp.build_plan(FACTORIES[name](seed=seed))
    assert cp.plan_to_json(plan) == plan_json_v2(plan)


@pytest.mark.parametrize("chunk", [3, 6, 21])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_plan_to_json_matches_list_document_in_small_chunks(name, chunk, monkeypatch):
    # Chunks far smaller than a mask, most of them straddling two masks.
    monkeypatch.setattr(plans_module, "_B64_CHUNK", chunk)
    plan = cp.build_plan(FACTORIES[name](seed=3))
    assert cp.plan_to_json(plan) == plan_json_v2(plan)


def test_plan_to_json_holds_no_full_size_copy_of_the_masks():
    # The masks of the scale plan are 4.1 MB as uint32 and 5.5 MB as
    # base64 text; a writer that stacks them (int64), copies them to
    # uint32 and encodes the whole at once peaks near 4.5 times the
    # output's length.
    plan = cp.build_plan(cp.SchemeParams(**SCALE_PARAMS))
    tracemalloc.start()
    try:
        text = cp.plan_to_json(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    same = text == plan_json_v2(plan)  # a bool: pytest would diff 5.5 MB texts
    assert same
    assert peak < 2.5 * len(text), (peak, len(text))


def test_database_to_json_matches_list_document():
    db = cp.random_database(3, 20, 2, 65537, seed=5)
    want = json.dumps({"p": db.p, "files": [f.tolist() for f in db.files]},
                      sort_keys=True, separators=(",", ":"))
    assert cp.database_to_json(db) == want


# --- v2 documents load to the built plan --------------------------------------------


def assert_v2_loads_the_built_plan(plan, adversary=None):
    """The v2 document gives the built plan's masks, atoms (as the oracle
    derives them) and mixing matrix, decodes the built plan's session to
    the same files, and re-dumps to the same bytes."""
    v2 = cp.plan_to_json(plan)
    db = cp.database_for_plan(plan, seed=11)
    transcript = cp.run_session(plan, db, adversary=adversary)
    loaded = cp.plan_from_json(v2)
    for got, want in ((loaded.masks, plan.masks), (atom_coeffs(loaded), atom_coeffs(plan))):
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
    assert (loaded.mix_matrix is None) == (plan.mix_matrix is None)
    assert plan.mix_matrix is None or np.array_equal(loaded.mix_matrix, plan.mix_matrix)
    files = cp.reconstruct(loaded, transcript)
    assert sorted(files) == list(plan.params.desired)
    assert all(np.array_equal(files[f], db.files[f]) for f in files)
    assert cp.plan_to_json(loaded) == v2


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("seed", [3, 8])
def test_v2_loads_the_built_plan(name, seed):
    plan = cp.build_plan(FACTORIES[name](seed=seed))
    assert (plan.mix_matrix is not None) == (name == "multifile")
    liar = cp.Adversary(byzantine_set=(2,), seed=seed) if name == "byzantine" else None
    assert_v2_loads_the_built_plan(plan, liar)


def test_v2_loads_the_built_scale_plan():
    assert_v2_loads_the_built_plan(cp.build_plan(cp.SchemeParams(**SCALE_PARAMS)))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(params=feasible_params())
def test_v2_loads_drawn_plans(params):
    assert_v2_loads_the_built_plan(cp.build_plan(params))


# --- the loader refuses malformed matrices, naming the field -----------------------


def _set(path, value):
    def edit(doc):
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        node[last] = value
    return edit


def _pop(path):
    """Drop the last item of the list at ``path``."""
    def edit(doc):
        node = doc
        for key in path:
            node = node[key]
        node.pop()
    return edit


def _delete(key):
    def edit(doc):
        del doc[key]
    return edit


def _set_mask_bytes(edit_bytes):
    def edit(doc):
        doc["masks"] = base64.b64encode(edit_bytes(base64.b64decode(doc["masks"]))).decode("ascii")
    return edit


P = 65537
# The stored matrices of v2 documents from the library writer: the
# multifile plan's 2 x 3 mixing matrix, and the robust plan's masks, two
# 100 x 100 uint32 matrices, 80000 bytes.
# case: (plan, edit, message the SchemeError must match)
CASES = {
    "float entry": ("multifile", _set(("mix_matrix", 0, 0), 1.5), "non-integer number 1.5"),
    "integral float entry": ("multifile", _set(("mix_matrix", 0, 0), 2.0), "non-integer number 2.0"),
    "string entry": ("multifile", _set(("mix_matrix", 0, 0), "7"), "mix_matrix has non-integer entries"),
    "null entry": ("multifile", _set(("mix_matrix", 1, 2), None), "mix_matrix has non-integer entries"),
    "all-boolean matrix": ("multifile", _set(("mix_matrix",), [[True] * 3] * 2), "mix_matrix has non-integer entries"),
    "booleans among integers": ("multifile", _set(("mix_matrix", 1, slice(1, 3)), [True, False]), "mix_matrix has non-integer entries"),
    "ragged rows": ("multifile", _pop(("mix_matrix", 1)), "mix_matrix has ragged rows"),
    "entry 2**70": ("multifile", _set(("mix_matrix", 0, 0), 2**70), rf"mix_matrix has entries outside \[0, {P}\)"),
    "entry 2**64-1": ("multifile", _set(("mix_matrix", 0, 0), 2**64 - 1), rf"mix_matrix has entries outside \[0, {P}\)"),
    "negative entry": ("multifile", _set(("mix_matrix", 0, 0), -1), rf"mix_matrix has entries outside \[0, {P}\)"),
    "entry p": ("multifile", _set(("mix_matrix", 0, 0), P), rf"mix_matrix has entries outside \[0, {P}\)"),
    "one mask fewer": ("robust", _set_mask_bytes(lambda b: b[:40000]), "masks holds 40000 bytes, not the 80000"),
    "masks missing": ("multifile", _delete("masks"), r"has the fields \['mix_matrix', 'params', 'schema'\]"),
    "mask one row short": ("robust", _set_mask_bytes(lambda b: b[:-400]), "masks holds 79600 bytes, not the 80000"),
    "stray mix_matrix": ("robust", _set(("mix_matrix",), [[1, 2, 3], [4, 5, 6]]), "mix_matrix is stored on a robust plan"),
    "mix_matrix short": ("multifile", _pop(("mix_matrix",)), r"mix_matrix has shape \(1, 3\), not \(2, 3\)"),
    "mix_matrix float": ("multifile", _set(("mix_matrix", 1, 1), 0.5), "non-integer number 0.5"),
    "mix_matrix null": ("multifile", _set(("mix_matrix",), None), "mix_matrix is missing from a multifile plan"),
    "mix_matrix missing": ("multifile", _delete("mix_matrix"), r"has the fields \['masks', 'params', 'schema'\]"),
    "mix_matrix entry p": ("multifile", _set(("mix_matrix", 0, 2), P), rf"mix_matrix has entries outside \[0, {P}\)"),
}


# v2 documents from the library writer; masks: two 100 x 100 uint32 masks, 80000 bytes.
V2_CASES = {
    "unknown schema": ("robust", _set(("schema",), "coded-pir-plan/3"), "unknown plan schema 'coded-pir-plan/3'"),
    "no schema": ("robust", _delete("schema"), "unknown plan schema None"),
    "extra field": ("robust", _set(("atom_coeffs",), []), r"has the fields \['atom_coeffs', 'masks', 'mix_matrix', 'params', 'schema'\]"),
    "v1 field": ("robust", _set(("l_rows",), 100), r"has the fields \['l_rows', 'masks'"),
    "masks missing": ("robust", _delete("masks"), r"has the fields \['mix_matrix', 'params', 'schema'\]"),
    "params missing": ("robust", _delete("params"), r"has the fields \['masks', 'mix_matrix', 'schema'\]"),
    "masks a list": ("robust", _set(("masks",), [[1]]), "masks must be a base64 string"),
    "masks not base64": ("robust", lambda doc: doc.update(masks="*" + doc["masks"][1:]), "masks is not base64"),
    "masks with a newline": ("robust", lambda doc: doc.update(masks=doc["masks"][:8] + "\n" + doc["masks"][8:]), "masks is not base64"),
    "masks unpadded": ("robust", lambda doc: doc.update(masks=doc["masks"][:-1]), "masks is not base64"),
    "masks non-ascii": ("robust", lambda doc: doc.update(masks="é" + doc["masks"][1:]), "masks is not base64"),
    "masks four bytes short": ("robust", _set_mask_bytes(lambda b: b[:-4]), "masks holds 79996 bytes, not the 80000"),
    "masks one mask long": ("robust", _set_mask_bytes(lambda b: b + b[:40000]), "masks holds 120000 bytes, not the 80000"),
    "mask entry p": ("robust", _set_mask_bytes(lambda b: b[:4000] + P.to_bytes(4, "little") + b[4004:]), rf"masks has entries outside \[0, {P}\)"),
    "mask entry 2**32-1": ("robust", _set_mask_bytes(lambda b: b"\xff" * 4 + b[4:]), rf"masks has entries outside \[0, {P}\)"),
    "float in params": ("robust", _set(("params", "seed"), 7.0), "non-integer number 7.0"),
    "params a string": ("robust", _set(("params",), "robust"), r'params must be an object, got "robust"'),
    "boolean seed": ("robust", _set(("params", "seed"), True), r"params\.seed must be an integer, got true"),
    "string n_servers": ("robust", _set(("params", "n_servers"), "4"), r'params\.n_servers must be an integer, got "4"'),
    "seed missing": ("robust", lambda doc: doc["params"].pop("seed"), r"params\.seed is missing"),
    "unknown variant": ("robust", _set(("params", "variant"), "sturdy"), r'params\.variant must be one of prototype, .*, got "sturdy"'),
    "pattern with an empty set": ("robust", _set(("params", "pattern"), [[0], []]), "params: pattern contains an empty subset"),
    "stray mix_matrix": ("robust", _set(("mix_matrix",), [[1]]), "mix_matrix is stored on a robust plan"),
    "mix_matrix null": ("multifile", _set(("mix_matrix",), None), "mix_matrix is missing from a multifile plan"),
    "mix_matrix absent": ("multifile", _delete("mix_matrix"), r"has the fields \['masks', 'params', 'schema'\]"),
    "mix_matrix booleans": ("multifile", _set(("mix_matrix", 0, slice(0, 2)), [False, True]), "mix_matrix has non-integer entries"),
    "mix_matrix entry p": ("multifile", _set(("mix_matrix", 1, 2), P), rf"mix_matrix has entries outside \[0, {P}\)"),
}


@pytest.fixture(scope="module")
def plans():
    return {name: cp.build_plan(factory())
            for name, factory in (("robust", robust_params), ("multifile", multifile_params))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_from_json_refuses_malformed_matrices(plans, case):
    name, edit, message = CASES[case]
    doc = json.loads(cp.plan_to_json(plans[name]))
    edit(doc)
    with pytest.raises(cp.SchemeError, match=message):
        cp.plan_from_json(json.dumps(doc))


@pytest.mark.parametrize("case", sorted(V2_CASES))
def test_plan_from_json_refuses_malformed_v2_documents(plans, case):
    name, edit, message = V2_CASES[case]
    doc = json.loads(cp.plan_to_json(plans[name]))
    edit(doc)
    with pytest.raises(cp.SchemeError, match=message):
        cp.plan_from_json(json.dumps(doc))


def test_plan_from_json_refuses_a_document_that_is_not_an_object():
    with pytest.raises(cp.SchemeError, match="unknown plan schema None"):
        cp.plan_from_json("[1, 2]")


@pytest.mark.parametrize("text,message", [
    ("not json", r"^plan JSON is malformed: Expecting value at line 1 column 1$"),
    ('{"schema": 1,\n "params" 2}', r"^plan JSON is malformed: Expecting ':' delimiter at line 2 column 11$"),
    ("", r"^plan JSON is malformed: Expecting value at line 1 column 1$"),
    ("[" * 100000, r"^plan JSON nests arrays or objects too deeply to parse$"),
    ('{"a":' * 100000, r"^plan JSON nests arrays or objects too deeply to parse$"),
])
def test_plan_from_json_refuses_text_that_is_not_json(text, message):
    with pytest.raises(cp.SchemeError, match=message):
        cp.plan_from_json(text)


def test_plan_from_json_accepts_unsorted_spaced_documents(plans):
    text = cp.plan_to_json(plans["robust"])
    reordered = json.dumps(dict(reversed(list(json.loads(text).items()))), indent=1)
    assert cp.plan_to_json(cp.plan_from_json(reordered)) == text
