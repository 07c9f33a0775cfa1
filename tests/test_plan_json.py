"""Plan and database JSON: the exact integer-matrix writer and the loader's refusals."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coded_pir as cp
from coded_pir.plans import _matrix_json
from conftest import FACTORIES, multifile_params, robust_params
from oracles import matrix_json, plan_json

# --- the writer against json.dumps(a.tolist()) -----------------------------------

MODULI = (2, 3, 65537, 3037000493)
EDGES = sorted(
    {v for p in MODULI for v in (0, 1, 9, 10, p - 1)}
    | {-1, -9, -10, -11, -(2**31), 2**31 - 1, 2**32, -(2**63), 2**63 - 1, -(2**63 - 1)}
)


@st.composite
def _int_matrices(draw):
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    info = np.iinfo(dtype)
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 5))
    edges = [v for v in EDGES if info.min <= v <= info.max]
    entry = st.sampled_from(edges) | st.integers(int(info.min), int(info.max))
    values = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=dtype).reshape(rows, cols)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(a=_int_matrices())
@example(a=np.zeros((0, 0), dtype=np.int64))
@example(a=np.zeros((0, 3), dtype=np.int32))
@example(a=np.zeros((3, 0), dtype=np.int64))
@example(a=np.array([[0]], dtype=np.int32))
@example(a=np.array([[-(2**63), 2**63 - 1], [-(2**63 - 1), 0]], dtype=np.int64))
@example(a=np.array([[-(2**31), 2**31 - 1, 9, 10]], dtype=np.int32))
def test_matrix_json_matches_json_dumps(a):
    assert _matrix_json(a) == matrix_json(a)


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("seed", [3, 8, 21])
def test_plan_to_json_matches_list_document(name, seed):
    plan = cp.build_plan(FACTORIES[name](seed=seed))
    assert (plan.mix_matrix is not None) == (name == "multifile")
    assert cp.plan_to_json(plan) == plan_json(plan)


def test_database_to_json_matches_list_document():
    db = cp.random_database(3, 20, 2, 65537, seed=5)
    want = json.dumps({"p": db.p, "files": [f.tolist() for f in db.files]},
                      sort_keys=True, separators=(",", ":"))
    assert cp.database_to_json(db) == want


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


P = 65537
# case: (plan, edit, message the SchemeError must match); robust plans have M=2, L=100
CASES = {
    "float entry": ("robust", _set(("masks", 0, 0, 0), 1.5), "non-integer number 1.5"),
    "integral float entry": ("robust", _set(("masks", 0, 0, 0), 2.0), "non-integer number 2.0"),
    "string entry": ("robust", _set(("masks", 0, 0, 0), "7"), r"masks\[0\] has non-integer entries"),
    "null entry": ("robust", _set(("atom_coeffs", 1, 2, 3), None), r"atom_coeffs\[1\] has non-integer entries"),
    "all-boolean matrix": ("robust", _set(("masks", 1), [[True] * 100] * 100), r"masks\[1\] has non-integer entries"),
    "ragged rows": ("robust", _pop(("masks", 0, 1)), r"masks\[0\] has ragged rows"),
    "entry 2**70": ("robust", _set(("masks", 0, 0, 0), 2**70), rf"masks\[0\] has entries outside \[0, {P}\)"),
    "entry 2**64-1": ("robust", _set(("masks", 0, 0, 0), 2**64 - 1), rf"masks\[0\] has entries outside \[0, {P}\)"),
    "negative entry": ("robust", _set(("atom_coeffs", 0, 0, 0), -1), rf"atom_coeffs\[0\] has entries outside \[0, {P}\)"),
    "entry p": ("robust", _set(("masks", 1, 5, 5), P), rf"masks\[1\] has entries outside \[0, {P}\)"),
    "one mask fewer": ("robust", _pop(("masks",)), "masks must be a list of 2 matrices"),
    "masks missing": ("robust", _delete("masks"), "masks must be a list of 2 matrices"),
    "mask one row short": ("robust", _pop(("masks", 1)), r"masks\[1\] has shape \(99, 100\), not \(100, 100\)"),
    "atom matrix one row short": ("robust", _pop(("atom_coeffs", 0)), r"atom_coeffs\[0\] has shape"),
    "stray mix_matrix": ("robust", _set(("mix_matrix",), [[1]]), "mix_matrix is stored on a robust plan"),
    "mix_matrix null": ("multifile", _set(("mix_matrix",), None), "mix_matrix is missing from a multifile plan"),
    "mix_matrix missing": ("multifile", _delete("mix_matrix"), "mix_matrix is missing from a multifile plan"),
    "mix_matrix short": ("multifile", _pop(("mix_matrix",)), r"mix_matrix has shape \(1, 3\), not \(2, 3\)"),
    "mix_matrix float": ("multifile", _set(("mix_matrix", 0, 0), 0.5), "non-integer number 0.5"),
    "mix_matrix entry p": ("multifile", _set(("mix_matrix", 1, 2), P), rf"mix_matrix has entries outside \[0, {P}\)"),
}


@pytest.fixture(scope="module")
def docs():
    return {name: cp.plan_to_json(cp.build_plan(factory()))
            for name, factory in (("robust", robust_params), ("multifile", multifile_params))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_from_json_refuses_malformed_matrices(docs, case):
    name, edit, message = CASES[case]
    doc = json.loads(docs[name])
    edit(doc)
    with pytest.raises(cp.SchemeError, match=message):
        cp.plan_from_json(json.dumps(doc))


def test_plan_from_json_accepts_unsorted_spaced_documents(docs):
    reordered = json.dumps(dict(reversed(list(json.loads(docs["robust"]).items()))), indent=1)
    assert cp.plan_to_json(cp.plan_from_json(reordered)) == docs["robust"]
