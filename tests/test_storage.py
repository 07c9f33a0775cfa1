import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coded_pir as cp
import oracles
from coded_pir import gf, rs
from conftest import FACTORIES, multifile_params
from feasible import SMALL_FEASIBLE


def project_by_hand(db, code):
    """Per-entry recomputation of every server's contents."""
    out = []
    for n in range(code.n):
        row = [int(v) for v in code.gen_t[n]]
        contents = []
        for f in db.files:
            for file_row in f:
                contents.append(sum(int(a) * c for a, c in zip(file_row, row)) % db.p)
        out.append(contents)
    return out


def test_encode_replication_code():
    db = cp.Database(files=(np.array([[3], [4]]), np.array([[1], [2]])), p=7)
    contents = cp.encode_database(db, rs.rs_transposed_generator(3, 1, 7))
    assert contents.shape == (4, 3)
    for n in range(3):
        assert contents[:, n].tolist() == [3, 4, 1, 2]


def test_encode_systematic_code():
    db = cp.Database(files=(np.array([[5, 9]]),), p=11)
    contents = cp.encode_database(db, oracles.generator_code([[1, 0], [0, 1]], 11))
    assert contents[:, 0].tolist() == [5]
    assert contents[:, 1].tolist() == [9]


def test_encode_matches_per_entry_oracle():
    db = cp.random_database(2, 2, 2, 7, seed=11)
    code = rs.rs_transposed_generator(4, 2, 7)
    contents = cp.encode_database(db, code)
    want = project_by_hand(db, code)
    for n, w in enumerate(want):
        assert contents[:, n].tolist() == w


def test_rs_storage_code_is_mds():
    for n, k in [(4, 2), (6, 2), (8, 2), (5, 3)]:
        assert oracles.is_mds(rs.rs_transposed_generator(n, k, 65537))
    assert oracles.is_mds(rs.rs_transposed_generator(4, 2, 5))  # largest N for p = 5
    assert not oracles.is_mds(oracles.generator_code([[1, 0], [1, 0], [0, 1]], 5))


def test_rs_storage_code_needs_more_field_elements_than_servers():
    # points 1..N must be distinct and nonzero mod p: N = 5 would use 0,
    # and N = 6 the points 1, 2, 3, 4, 0, 1
    for n in (5, 6):
        with pytest.raises(cp.InvalidShape):
            rs.rs_transposed_generator(n, 2, 5)


def test_answer_query_basics():
    db = cp.random_database(2, 3, 2, 13, seed=3)
    contents = cp.encode_database(db, rs.rs_transposed_generator(4, 2, 13))[:, 1]
    zero = np.zeros(6, dtype=np.int64)
    assert oracles.answer_query(zero, contents, 13) == 0
    unit = zero.copy()
    unit[4] = 1
    assert oracles.answer_query(unit, contents, 13) == int(contents[4])


def test_answer_query_matrix_form_oracle():
    # response equals (sum_m q_m W[m]) . g_n computed independently
    p = 7
    db = cp.random_database(2, 2, 2, p, seed=5)
    code = rs.rs_transposed_generator(3, 2, p)
    contents = cp.encode_database(db, code)
    rng = gf.FieldRng(8, p)
    q = rng.elements(4)
    combo = (q[:2] @ np.asarray(db.files[0]) + q[2:] @ np.asarray(db.files[1])) % p
    for n in range(code.n):
        want = int(combo @ code.gen_t[n] % p)
        assert oracles.answer_query(q, contents[:, n], p) == want


def test_answer_query_linearity():
    p = 13
    db = cp.random_database(1, 4, 2, p, seed=9)
    contents = cp.encode_database(db, rs.rs_transposed_generator(3, 2, p))[:, 0]
    rng = gf.FieldRng(10, p)
    q1, q2 = rng.elements(4), rng.elements(4)
    lhs = oracles.answer_query((q1 + q2) % p, contents, p)
    rhs = (oracles.answer_query(q1, contents, p) + oracles.answer_query(q2, contents, p)) % p
    assert lhs == rhs


def test_prototype_session_download_count(proto_plan):
    db = cp.database_for_plan(proto_plan, seed=1)
    tr = cp.run_session(proto_plan, db)
    # 91 blocks, 12 responses per block when all four servers answer
    assert tr.downloaded_symbols == 1092
    assert all(r is not None for r in tr.responses)


def test_robust_session_download_count(robust_plan):
    db = cp.database_for_plan(robust_plan, seed=1)
    for absent in range(6):
        tr = cp.run_session(robust_plan, db, adversary=cp.Adversary(robust_set=(absent,)))
        assert tr.responses[absent] is None
        assert tr.downloaded_symbols == 475  # 19 blocks x 5 answering x 5 rows


def test_byzantine_honest_adversary_equals_clean_run(byz_plan):
    db = cp.database_for_plan(byz_plan, seed=1)
    clean = cp.run_session(byz_plan, db)
    nominal = cp.run_session(byz_plan, db, adversary=cp.Adversary(byzantine_set=()))
    for a, b in zip(clean.responses, nominal.responses):
        assert np.array_equal(a, b)


def test_corruption_locality(byz_plan):
    db = cp.database_for_plan(byz_plan, seed=1)
    clean = cp.run_session(byz_plan, db)
    dirty = cp.run_session(byz_plan, db, adversary=cp.Adversary(byzantine_set=(2,), seed=4))
    for n, (a, b) in enumerate(zip(clean.responses, dirty.responses)):
        if n == 2:
            assert np.all((a - b) % db.p != 0)  # every response corrupted
        else:
            assert np.array_equal(a, b)


def test_custom_corruption_hook(byz_plan):
    db = cp.database_for_plan(byz_plan, seed=1)

    def flip_to_zero(rng, server, responses):
        return np.zeros_like(responses)

    adv = cp.Adversary(byzantine_set=(0,), corruption=flip_to_zero)
    tr = cp.run_session(byz_plan, db, adversary=adv)
    assert not tr.responses[0].any()


def test_corruption_deterministic_in_seed(byz_plan):
    db = cp.database_for_plan(byz_plan, seed=1)
    a = cp.run_session(byz_plan, db, adversary=cp.Adversary(byzantine_set=(5,), seed=3))
    b = cp.run_session(byz_plan, db, adversary=cp.Adversary(byzantine_set=(5,), seed=3))
    c = cp.run_session(byz_plan, db, adversary=cp.Adversary(byzantine_set=(5,), seed=4))
    assert np.array_equal(a.responses[5], b.responses[5])
    assert not np.array_equal(a.responses[5], c.responses[5])


def test_database_json_roundtrip():
    db = cp.random_database(2, 3, 2, 65537, seed=42)
    back = cp.database_from_json(cp.database_to_json(db))
    assert back.p == db.p
    for a, b in zip(db.files, back.files):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "text,field",
    [
        ('{"files":[[[1.5,2],[3,4]]],"p":7}', "files[0]"),  # float literal
        ('{"files":[[["7",2],[3,4]]],"p":7}', "files[0]"),  # string
        ('{"files":[[[null,2],[3,4]]],"p":7}', "files[0]"),
        ('{"files":[[[1,2],[3,4]],[[5,true],[false,6]]],"p":7}', "files[1]"),  # booleans among integers
        ('{"files":[[[1,2],[3]]],"p":7}', "files[0]"),  # ragged rows
        ('{"files":[[1,2]],"p":7}', "files[0]"),  # not a matrix
        ('{"files":[[[1,2],[3,4]],[[1,2]]],"p":7}', "files[1]"),  # unequal file shapes
        ('{"files":[[[1,2],[3,4]],[[1,2],[3,7]]],"p":7}', "files[1]"),  # entry = p
        ('{"files":[[[1,2],[3,-1]]],"p":7}', "files[0]"),
        ('{"files":[[[70000]]],"p":65537}', "files[0]"),
        ('{"files":[[[18446744073709551616]]],"p":7}', "files[0]"),  # beyond 64 bits
        ('{"files":[],"p":7}', "files"),
        ('{"p":7}', "files"),
        ('{"files":[[[1]]],"p":65536}', "p"),  # not prime
        ('{"files":[[[1]]],"p":7.0}', "p"),
        ('{"files":[[[1]]],"p":"7"}', "p"),
        ('{"files":[[[1]]],"p":null}', "p"),
    ],
)
def test_database_from_json_refuses_malformed_documents(text, field):
    with pytest.raises(cp.StorageError, match=f"^{re.escape(field)}[ :]"):
        cp.database_from_json(text)


@pytest.mark.parametrize("text,message", [
    ("not json", r"^database JSON is malformed: Expecting value at line 1 column 1$"),
    ('{"p": 7,\n "files": [[[1]]]', r"^database JSON is malformed: Expecting ',' delimiter at line 2 column 18$"),
    ("[" * 100000, r"^database JSON nests arrays or objects too deeply to parse$"),
])
def test_database_from_json_refuses_text_that_is_not_json(text, message):
    with pytest.raises(cp.StorageError, match=message):
        cp.database_from_json(text)


def test_random_database_deterministic():
    a = cp.random_database(2, 4, 2, 65537, seed=6)
    b = cp.random_database(2, 4, 2, 65537, seed=6)
    c = cp.random_database(2, 4, 2, 65537, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a.files, b.files))
    assert any(not np.array_equal(x, y) for x, y in zip(a.files, c.files))


def test_shape_mismatch_errors(proto_plan):
    bad_db = cp.random_database(3, 10, 2, 65537, seed=0)
    with pytest.raises(cp.ShapeMismatch):
        cp.run_session(proto_plan, bad_db)
    db = cp.database_for_plan(proto_plan, seed=0)
    with pytest.raises(cp.ShapeMismatch):
        cp.run_session(proto_plan, db, adversary=cp.Adversary(robust_set=(9,)))
    other_field = cp.random_database(db.m, db.l_rows, db.k, 65521, seed=0)
    with pytest.raises(cp.ShapeMismatch, match=r"^storage code modulus 65537 != database modulus 65521$"):
        cp.run_session(proto_plan, other_field)
    with pytest.raises(cp.ShapeMismatch, match=r"^storage code dimension 3 != file width 2$"):
        cp.encode_database(db, rs.rs_transposed_generator(4, 3, 65537))
    with pytest.raises(cp.ShapeMismatch):
        cp.Database(files=(np.zeros((2, 2), dtype=np.int64), np.zeros((3, 2), dtype=np.int64)), p=7)


def test_database_needs_a_file():
    with pytest.raises(cp.ShapeMismatch, match=r"^a database needs at least one file$"):
        cp.Database(files=(), p=65537)


# --- the session against the dense query view ----------------------------------------


def assert_same_session(plan, db, adversary=None):
    got = cp.run_session(plan, db, adversary=adversary)
    want = oracles.dense_session(plan, db, adversary)
    assert got.downloaded_symbols == want.downloaded_symbols
    assert [r is None for r in got.responses] == [r is None for r in want.responses]
    for a, b in zip(got.responses, want.responses):
        assert a is None or np.array_equal(a, b)


def _faults(params):
    """Every single absence (robust), every liar and liar pair (byzantine)."""
    servers = range(params.n_servers)
    if params.variant is cp.Variant.ROBUST:
        return [cp.Adversary(robust_set=(n,)) for n in servers]
    if params.variant is cp.Variant.BYZANTINE:
        return [cp.Adversary(byzantine_set=c, seed=5) for r in (1, 2) for c in combinations(servers, r)]
    return []


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_session_matches_dense_view_under_every_fault(name):
    plan = cp.build_plan(FACTORIES[name]())
    db = cp.database_for_plan(plan, seed=1)
    for adversary in [None] + _faults(plan.params):
        assert_same_session(plan, db, adversary)


@st.composite
def _drawn_sessions(draw):
    params = draw(st.sampled_from(SMALL_FEASIBLE[draw(st.sampled_from(sorted(SMALL_FEASIBLE)))]))
    if params.variant is not cp.Variant.MULTI_FILE:
        params = replace(params, desired=(draw(st.integers(0, params.n_files - 1)),))
    servers = st.lists(st.integers(0, params.n_servers - 1), max_size=2)
    adversary = cp.Adversary(robust_set=draw(servers), byzantine_set=draw(servers), seed=draw(st.integers(0, 99)))
    return replace(params, seed=draw(st.integers(0, 2**16))), adversary


@settings(max_examples=150, derandomize=True, deadline=None)
@given(drawn=_drawn_sessions())
def test_session_matches_dense_view_on_drawn_plans(drawn):
    params, adversary = drawn
    plan = cp.build_plan(params)
    assert_same_session(plan, cp.database_for_plan(plan, seed=params.seed), adversary)


def test_session_stays_exact_with_mixing_entries_near_the_modulus():
    # A built plan's mixing entries are small.  Entries near p - 1 at the
    # largest modulus make every scaled atom answer nearly p**2, so the
    # mixed blocks' sums are exact only if each addition is reduced.
    p = 3037000493
    plan = cp.build_plan(replace(multifile_params(), modulus=p))
    shape = plan.mix_matrix.shape
    plan = replace(plan, mix_matrix=p - 1 - np.arange(shape[0] * shape[1], dtype=np.int64).reshape(shape))
    assert_same_session(plan, cp.database_for_plan(plan, seed=1))
