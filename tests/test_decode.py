import dataclasses
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import coded_pir as cp
import oracles
from coded_pir import decode, gf, rs
from conftest import (
    byzantine_params,
    multifile_params,
    pattern_params,
    prototype_params,
    robust_params,
)


def exact_roundtrip(params, adversary=None, db_seed=17):
    plan = cp.build_plan(params)
    db = cp.database_for_plan(plan, seed=db_seed)
    tr = cp.run_session(plan, db, adversary=adversary)
    out = cp.reconstruct(plan, tr)
    assert set(out) == set(params.desired)
    for f in params.desired:
        assert np.array_equal(out[f], db.files[f])
    return plan, db, tr


# --- shared-query decoding ------------------------------------------------------


def test_decode_shared_query_systematic():
    code = oracles.generator_code([[1, 0], [0, 1]], 7)
    x = oracles.decode_shared_query({0: 4, 1: 6}, code)
    assert x.tolist() == [4, 6]


def test_decode_shared_query_replication():
    code = rs.rs_transposed_generator(3, 1, 7)  # every server stores the file row
    assert oracles.decode_shared_query({2: 5}, code).tolist() == [5]


def test_decode_shared_query_forward_encode_oracle():
    p = 7
    code = rs.rs_transposed_generator(5, 2, p)
    rng = gf.FieldRng(4, p)
    for _ in range(25):
        x = rng.elements(2)
        servers = sorted(rng.permutation(5)[:2])
        responses = {n: int(code.gen_t[n] @ x % p) for n in servers}
        got = oracles.decode_shared_query(responses, code)
        assert np.array_equal(got, x)


def test_decode_shared_query_wrong_count():
    code = rs.rs_transposed_generator(4, 2, 7)
    with pytest.raises(oracles.SingularSystem):
        oracles.decode_shared_query({0: 1}, code)


# --- end-to-end per variant -------------------------------------------------------


def test_prototype_roundtrip():
    exact_roundtrip(prototype_params())


def test_prototype_roundtrip_other_desired():
    exact_roundtrip(prototype_params(desired=(2,)))


def test_robust_roundtrip_every_single_absence():
    params = robust_params()
    plan = cp.build_plan(params)
    db = cp.database_for_plan(plan, seed=23)
    for absent in range(6):
        tr = cp.run_session(plan, db, adversary=cp.Adversary(robust_set=(absent,)))
        out = cp.reconstruct(plan, tr)
        assert np.array_equal(out[0], db.files[0])


def test_robust_roundtrip_no_absence_uses_extra_responses():
    exact_roundtrip(robust_params(), adversary=None)


def test_robust_two_absent_fails_loudly():
    params = robust_params()  # built for S = 1
    plan = cp.build_plan(params)
    db = cp.database_for_plan(plan, seed=23)
    tr = cp.run_session(plan, db, adversary=cp.Adversary(robust_set=(0, 1)))
    with pytest.raises(cp.DecodingFailure):
        cp.reconstruct(plan, tr)


def test_robust_detects_corrupted_surplus_responses():
    # with no server absent the decoder has redundancy; a lying server
    # must surface as an inconsistency, not silent wrong output
    params = robust_params()
    plan = cp.build_plan(params)
    db = cp.database_for_plan(plan, seed=23)
    tr = cp.run_session(plan, db, adversary=cp.Adversary(byzantine_set=(2,), seed=1))
    with pytest.raises(cp.DecodingFailure):
        cp.reconstruct(plan, tr)


def test_byzantine_roundtrip_single_corruption():
    exact_roundtrip(byzantine_params(), adversary=cp.Adversary(byzantine_set=(4,), seed=9))


def test_byzantine_over_budget_fails_or_differs():
    params = byzantine_params()  # built for B = 1
    plan = cp.build_plan(params)
    db = cp.database_for_plan(plan, seed=23)
    tr = cp.run_session(plan, db, adversary=cp.Adversary(byzantine_set=(0, 1), seed=2))
    try:
        out = cp.reconstruct(plan, tr)
    except cp.DecodingFailure:
        return
    assert not np.array_equal(out[0], db.files[0])


def test_byzantine_rejects_absent_server():
    params = byzantine_params()
    plan = cp.build_plan(params)
    db = cp.database_for_plan(plan, seed=23)
    tr = cp.run_session(plan, db, adversary=cp.Adversary(robust_set=(1,)))
    with pytest.raises(cp.MissingResponses):
        cp.reconstruct(plan, tr)


def test_multifile_roundtrip():
    exact_roundtrip(multifile_params())


def test_multifile_roundtrip_nonadjacent_desired():
    exact_roundtrip(multifile_params(desired=(0, 2)))


def test_multifile_all_files_desired():
    exact_roundtrip(multifile_params(desired=(0, 1, 2)))


def test_pattern_roundtrip():
    exact_roundtrip(pattern_params())


def test_beta_greater_than_one_roundtrips():
    proto = cp.SchemeParams(variant="prototype", n_servers=5, code_dim=1,
                            n_files=2, collusion_size=2, seed=2)
    exact_roundtrip(proto)
    multi = cp.SchemeParams(variant="multifile", n_servers=5, code_dim=1,
                            n_files=3, desired=(0, 2), collusion_size=2, seed=2)
    exact_roundtrip(multi)


def test_single_file_roundtrip():
    params = cp.SchemeParams(variant="prototype", n_servers=4, code_dim=2,
                             n_files=1, collusion_size=2, seed=3)
    exact_roundtrip(params)


def test_interference_elimination_locality():
    # zeroing the undesired files changes nothing in the recovered file
    params = prototype_params()
    plan = cp.build_plan(params)
    db = cp.database_for_plan(plan, seed=31)
    zeroed = cp.Database(
        files=tuple(
            f if i in params.desired else np.zeros_like(f) for i, f in enumerate(db.files)
        ),
        p=db.p,
    )
    out_full = cp.reconstruct(plan, cp.run_session(plan, db))
    out_zero = cp.reconstruct(plan, cp.run_session(plan, zeroed))
    assert np.array_equal(out_full[0], out_zero[0])
    assert np.array_equal(out_zero[0], db.files[0])


def test_multifile_mixing_columns_invertible_across_seeds():
    for seed in range(20):
        plan = cp.build_plan(multifile_params(seed=seed))
        sub = plan.mix_matrix[:, list(plan.params.desired)]
        assert gf.mat_rank(sub, plan.params.modulus) == len(plan.params.desired)


def test_reconstruct_from_json_roundtripped_plan():
    params = robust_params()
    plan = cp.plan_from_json(cp.plan_to_json(cp.build_plan(params)))
    db = cp.database_for_plan(plan, seed=23)
    tr = cp.run_session(plan, db, adversary=cp.Adversary(robust_set=(3,)))
    out = cp.reconstruct(plan, tr)
    assert np.array_equal(out[0], db.files[0])


def test_recovered_atoms_provenance_counts():
    # robust, one absent server: per desired block the 10 reachable
    # symbols read directly and the 5 others complete via the small code
    plan = cp.build_plan(robust_params())
    db = cp.database_for_plan(plan, seed=3)
    tr = cp.run_session(plan, db, adversary=cp.Adversary(robust_set=(0,)))
    record = cp.recovered_atoms(plan, tr)
    flags = list(record.flags[0].values())
    assert flags.count("direct") == 100
    assert flags.count("erasure-completed") == 50
    assert set(record.values[0]) == set(range(150))

    # byzantine, one liar: it touches 7 symbols of each of the 14
    # desired blocks, all of which must come back repaired
    plan = cp.build_plan(byzantine_params())
    db = cp.database_for_plan(plan, seed=3)
    tr = cp.run_session(plan, db, adversary=cp.Adversary(byzantine_set=(2,), seed=5))
    record = cp.recovered_atoms(plan, tr)
    flags = list(record.flags[0].values())
    assert flags.count("error-corrected") == 7 * 14
    assert flags.count("direct") == 28 * 14 - 7 * 14


def test_recovered_atoms_cover_every_desired_atom():
    for factory in (prototype_params, multifile_params, pattern_params):
        params = factory()
        plan = cp.build_plan(params)
        db = cp.database_for_plan(plan, seed=5)
        record = cp.recovered_atoms(plan, cp.run_session(plan, db))
        for f in params.desired:
            n_atoms = oracles.atom_coeffs(plan)[f].shape[0]
            assert set(record.values[f]) == set(range(n_atoms))
            assert set(record.flags[f].values()) == {"direct"}


def test_pattern_with_unqueried_server():
    # server 3 sits in no family block: its column is empty, it gets no
    # queries, and the scheme still works for the declared pattern
    pattern = cp.CollusionPattern(((0,), (3,)))
    family = cp.BlockFamily(((0, 1), (1, 2), (0, 2)), 2)
    params = cp.SchemeParams(variant="pattern", n_servers=4, code_dim=2, n_files=2,
                             desired=(0,), pattern=pattern, family=family, seed=4)
    plan = cp.build_plan(params)
    assert plan.layout.array.columns[3] == ()
    assert cp.validate_plan(plan) == []
    exact_roundtrip(params)
    audits = cp.full_privacy_sweep(plan)
    assert all(a.passed for a in audits)
    silent = cp.collusion_view_ranks(plan, (3,))
    assert silent.per_file_rank == (0, 0) and silent.expected_rank == 0 and silent.passed
    for size in range(1, 5):
        for servers in combinations(range(4), size):
            ranks = cp.collusion_view_ranks(plan, servers).per_file_rank
            assert ranks == oracles.dense_view_ranks(plan, servers), servers


# --- interleaved error location ---------------------------------------------------


@pytest.mark.parametrize("liars, located_columns", [((3,), 2), ((0, 5), 1)])
def test_byzantine_decode_locates_errors_once_per_code(byz_plan, monkeypatch, liars, located_columns):
    # One liar: the error locator runs on column 0 of the big code and of
    # the batched small-code chunks, once each; two liars already fail on
    # the big code.
    db = cp.database_for_plan(byz_plan, seed=17)
    tr = cp.run_session(byz_plan, db, adversary=cp.Adversary(byzantine_set=liars, seed=1))
    calls = []
    locate = rs._error_support

    def counted(code, column, erased):
        calls.append(code.n)
        return locate(code, column, erased)

    monkeypatch.setattr(rs, "_error_support", counted)
    if len(liars) == 1:
        assert np.array_equal(cp.reconstruct(byz_plan, tr)[0], db.files[0])
    else:
        with pytest.raises(cp.DecodingFailure):
            cp.reconstruct(byz_plan, tr)
    assert len(calls) == located_columns
    assert len(set(calls)) == located_columns  # one column per code


def test_byzantine_decode_leaves_numpy_ma_unimported():
    # numpy.ma costs about 1 MB of peak RSS, and on numpy 2.4 some set
    # routines (np.union1d) import it lazily; the decoder unions supports
    # in a position mask instead.
    script = (
        "import sys\n"
        "import coded_pir as cp\n"
        "params = cp.SchemeParams(variant='byzantine', n_servers=8, code_dim=2, n_files=2,\n"
        "                         desired=(0,), collusion_size=2, b_byzantine=1, seed=7)\n"
        "plan = cp.build_plan(params)\n"
        "db = cp.database_for_plan(plan, seed=17)\n"
        "tr = cp.run_session(plan, db, adversary=cp.Adversary(byzantine_set=(3,), seed=1))\n"
        "assert (cp.reconstruct(plan, tr)[0] == db.files[0]).all()\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_batched_chunks_name_the_failing_column_within_its_chunk():
    code = rs.rs_transposed_generator(7, 3, 13)
    good = rs.encode(code, np.array([[1, 2], [3, 4], [5, 6]]))
    bad = good.copy()
    bad[[0, 2, 4, 6], 1] = (bad[[0, 2, 4, 6], 1] + 1) % 13  # 4 errors, radius 2
    assert oracles.bw_decode_column(code, bad[:, 1]) is None
    chunks = [{i: good[i] for i in range(7)}, {i: bad[i] for i in range(7)}]
    with pytest.raises(rs.DecodingFailure, match="of column 1$"):
        decode._recover_batch(code, chunks, correct=True)


def test_multifile_undesired_files_decode_in_one_call(monkeypatch):
    # Both undesired files ride the big code at the same known positions.
    params = cp.SchemeParams(variant="multifile", n_servers=4, code_dim=2, n_files=4,
                             desired=(0, 1), collusion_size=2, seed=7)
    plan = cp.build_plan(params)
    db = cp.database_for_plan(plan, seed=17)
    tr = cp.run_session(plan, db)
    calls = []
    recover = rs.recover_message

    def counted(code, known, correct=False):
        calls.append(len(known))
        return recover(code, known, correct)

    monkeypatch.setattr(rs, "recover_message", counted)
    out = cp.reconstruct(plan, tr)
    assert all(np.array_equal(out[f], db.files[f]) for f in params.desired)
    layout = plan.layout
    shared = layout.ab.beta * layout.array.n_symbols
    assert calls == [layout.big_code.n - shared]
    flags = cp.recovered_atoms(plan, tr).flags
    assert flags == {
        f: {t: decode.FLAG_DIRECT if f in params.desired or t >= shared else decode.FLAG_ERASURE
            for t in range(layout.l_rows)}
        for f in range(params.n_files)
    }


# --- per-plan decoding state -------------------------------------------------------


def test_interpolation_bases_are_built_once_per_plan(monkeypatch):
    builds, adds = [], []
    build, add = rs._interp_setup, decode.RecoveredAtoms.add

    def counted_build(p, points):
        builds.append(points.shape)
        return build(p, points)

    def counted_add(self, *args):
        adds.append(args)
        add(self, *args)

    monkeypatch.setattr(rs, "_interp_setup", counted_build)
    monkeypatch.setattr(decode.RecoveredAtoms, "add", counted_add)
    for params, adversary in [
        (robust_params(), cp.Adversary(robust_set=(2,))),
        (byzantine_params(), cp.Adversary(byzantine_set=(4,), seed=9)),
    ]:
        for _ in range(2):  # a fresh plan builds its own bases
            plan = cp.build_plan(params)
            db = cp.database_for_plan(plan, seed=17)
            tr = cp.run_session(plan, db, adversary=adversary)
            builds.clear()
            for _ in range(3):
                assert np.array_equal(cp.reconstruct(plan, tr)[0], db.files[0])
            layout = plan.layout
            symbols = (layout.array.n_symbols, params.code_dim)  # all symbols in one call
            assert sorted(builds) == sorted([(layout.big_code.n,), (layout.small_code.n,), symbols])
    assert adds == []
    cp.recovered_atoms(plan, tr)
    assert adds

    for plan in (cp.build_plan(robust_params()), cp.build_plan(pattern_params())):
        layout = plan.layout
        for subset, inverse in zip(layout.array.symbols, layout.symbol_inverses):
            for i, n in enumerate(subset):
                unit = {m: int(m == n) for m in subset}
                assert np.array_equal(inverse[:, i], oracles.decode_shared_query(unit, layout.storage_code))


def _count_eliminations(monkeypatch) -> list[int]:
    """Patch the elimination kernel to log the column count of every matrix it eliminates."""
    widths = []
    eliminate = gf._eliminate

    def counted(m, *args, **kwargs):
        widths.append(m.shape[1])
        return eliminate(m, *args, **kwargs)

    monkeypatch.setattr(gf, "_eliminate", counted)
    return widths


def test_fresh_plan_decodes_through_its_build_factors(monkeypatch):
    widths = _count_eliminations(monkeypatch)
    for params in (prototype_params(), robust_params(), multifile_params()):
        plan = cp.build_plan(params)
        assert widths.count(plan.l_rows) >= params.n_files  # the masks' rank tests
        db = cp.database_for_plan(plan, seed=17)
        tr = cp.run_session(plan, db)
        widths.clear()
        out = cp.reconstruct(plan, tr)
        assert all(np.array_equal(out[f], db.files[f]) for f in params.desired)
        assert plan.l_rows not in widths


def test_loaded_plan_factors_each_desired_mask_once(monkeypatch):
    widths = _count_eliminations(monkeypatch)
    for params, adversary in [
        (robust_params(), cp.Adversary(robust_set=(4,))),
        (byzantine_params(), cp.Adversary(byzantine_set=(1,), seed=3)),
        (multifile_params(), None),
    ]:
        built = cp.build_plan(params)
        loaded = cp.plan_from_json(cp.plan_to_json(built))
        db = cp.database_for_plan(built, seed=29)
        tr = cp.run_session(built, db, adversary=adversary)
        widths.clear()
        for _ in range(2):
            out = cp.reconstruct(loaded, tr)
            assert all(np.array_equal(out[f], db.files[f]) for f in params.desired)
        assert widths.count(loaded.l_rows) == len(params.desired)
        assert set(loaded.mask_factors) == set(params.desired)
        want, got = cp.recovered_atoms(built, tr), cp.recovered_atoms(loaded, tr)
        assert got.flags == want.flags
        assert {f: set(v) for f, v in got.values.items()} == {f: set(v) for f, v in want.values.items()}
        for f, atoms in want.values.items():
            for a, value in atoms.items():
                assert np.array_equal(got.values[f][a], value), (f, a)


def test_loaded_plan_with_singular_desired_mask_fails_at_decode_time():
    plan = cp.build_plan(prototype_params())
    db = cp.database_for_plan(plan, seed=5)
    tr = cp.run_session(plan, db)
    (des,) = plan.params.desired
    masks = list(plan.masks)
    masks[des] = masks[des].copy()
    masks[des][1] = masks[des][0]
    loaded = cp.plan_from_json(cp.plan_to_json(dataclasses.replace(plan, masks=tuple(masks))))
    with pytest.raises(cp.DecodingFailure, match="^matrix is singular$"):
        cp.reconstruct(loaded, tr)


def test_singular_mixing_matrix_fails_at_decode_time():
    plan = cp.build_plan(multifile_params())
    db = cp.database_for_plan(plan, seed=5)
    tr = cp.run_session(plan, db)
    mix = plan.mix_matrix.copy()
    mix[:, 1] = mix[:, 0]
    singular = dataclasses.replace(plan, mix_matrix=mix)
    with pytest.raises(cp.DecodingFailure, match="mixing matrix is singular on the desired columns"):
        cp.reconstruct(singular, tr)
