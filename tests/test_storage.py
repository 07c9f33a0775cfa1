import numpy as np
import pytest

import coded_pir as cp
import oracles
from coded_pir import gf


def project_by_hand(db, code):
    """Per-entry recomputation of every server's contents."""
    out = []
    for n in range(code.n_servers):
        col = [int(v) for v in code.gen[:, n]]
        contents = []
        for f in db.files:
            for row in f:
                contents.append(sum(int(a) * c for a, c in zip(row, col)) % db.p)
        out.append(contents)
    return out


def test_encode_replication_code():
    db = cp.Database(files=(np.array([[3], [4]]), np.array([[1], [2]])), p=7)
    code = cp.StorageCode(gen=np.ones((1, 3), dtype=np.int64), p=7)
    servers = cp.encode_database(db, code)
    for s in servers:
        assert s.contents.tolist() == [3, 4, 1, 2]


def test_encode_systematic_code():
    db = cp.Database(files=(np.array([[5, 9]]),), p=11)
    code = cp.StorageCode(gen=np.array([[1, 0], [0, 1]], dtype=np.int64), p=11)
    servers = cp.encode_database(db, code)
    assert servers[0].contents.tolist() == [5]
    assert servers[1].contents.tolist() == [9]


def test_encode_matches_per_entry_oracle():
    db = cp.random_database(2, 2, 2, 7, seed=11)
    code = cp.rs_storage_code(4, 2, 7)
    servers = cp.encode_database(db, code)
    want = project_by_hand(db, code)
    for s, w in zip(servers, want):
        assert s.contents.tolist() == w


def test_rs_storage_code_is_mds():
    for n, k in [(4, 2), (6, 2), (8, 2), (5, 3)]:
        assert oracles.is_mds(cp.rs_storage_code(n, k, 65537))
    assert oracles.is_mds(cp.rs_storage_code(4, 2, 5))  # largest N for p = 5


def test_rs_storage_code_needs_more_field_elements_than_servers():
    # points 1..N must be distinct and nonzero mod p: N = 5 would use 0,
    # and N = 6 the points 1, 2, 3, 4, 0, 1
    for n in (5, 6):
        with pytest.raises(cp.InvalidShape):
            cp.rs_storage_code(n, 2, 5)


def test_answer_query_basics():
    db = cp.random_database(2, 3, 2, 13, seed=3)
    code = cp.rs_storage_code(4, 2, 13)
    server = cp.encode_database(db, code)[1]
    zero = np.zeros(6, dtype=np.int64)
    assert oracles.answer_query(zero, server, 13) == 0
    unit = zero.copy()
    unit[4] = 1
    assert oracles.answer_query(unit, server, 13) == int(server.contents[4])


def test_answer_query_matrix_form_oracle():
    # response equals (sum_m q_m W[m]) . g_n computed independently
    p = 7
    db = cp.random_database(2, 2, 2, p, seed=5)
    code = cp.rs_storage_code(3, 2, p)
    servers = cp.encode_database(db, code)
    rng = gf.FieldRng(8, p)
    q = rng.elements(4)
    combo = (q[:2] @ np.asarray(db.files[0]) + q[2:] @ np.asarray(db.files[1])) % p
    for n, server in enumerate(servers):
        want = int(combo @ code.gen[:, n] % p)
        assert oracles.answer_query(q, server, p) == want


def test_answer_query_linearity():
    p = 13
    db = cp.random_database(1, 4, 2, p, seed=9)
    server = cp.encode_database(db, cp.rs_storage_code(3, 2, p))[0]
    rng = gf.FieldRng(10, p)
    q1, q2 = rng.elements(4), rng.elements(4)
    lhs = oracles.answer_query((q1 + q2) % p, server, p)
    rhs = (oracles.answer_query(q1, server, p) + oracles.answer_query(q2, server, p)) % p
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
    with pytest.raises(cp.ShapeMismatch):
        cp.Database(files=(np.zeros((2, 2), dtype=np.int64), np.zeros((3, 2), dtype=np.int64)), p=7)
