from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coded_pir import gf, rs
from test_gf import KERNEL_MODULI


# --- independent oracles -----------------------------------------------------


def lagrange_extend(points, known_x, known_y, p):
    """Evaluate the interpolant of (known_x, known_y) at every point.

    Classic Lagrange form, written without touching the library's solve
    or interpolation machinery.
    """
    out = []
    for x in points:
        total = 0
        for i, xi in enumerate(known_x):
            term = known_y[i]
            for j, xj in enumerate(known_x):
                if i != j:
                    term = term * (x - xj) % p * pow(int(xi - xj) % p, -1, p) % p
            total = (total + term) % p
        out.append(total % p)
    return out


def all_codewords(code):
    """Every codeword of a small code, by brute-force message enumeration."""
    words = []
    for msg in product(range(code.p), repeat=code.k):
        words.append(tuple(int(v) for v in rs.encode(code, np.array(msg, dtype=np.int64))))
    return words


def nearest_codeword(code, received):
    """(best distance, the codewords at that distance), exhaustively."""
    best, hits = None, []
    for word in all_codewords(code):
        d = sum(1 for a, b in zip(word, received) if a != b)
        if best is None or d < best:
            best, hits = d, [word]
        elif d == best:
            hits.append(word)
    return best, hits


# --- construction ------------------------------------------------------------


def test_generator_column_of_ones_for_k1():
    code = rs.rs_transposed_generator(3, 1, 7)
    assert code.gen_t.tolist() == [[1], [1], [1]]


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_vandermonde_by_doubling_matches_column_loop(p):
    # Every width from 0 to 300, on points that reach p - 1, where the
    # products of two residues come nearest 2**63 at 3037000493.
    points = np.unique(np.concatenate([np.arange(1, min(p, 40)), [p - 1], p - np.arange(1, min(p, 20))]))
    for width in range(301):
        got = rs._vandermonde(points, width, p)
        assert got.dtype == np.int64 and np.array_equal(got, oracles.vandermonde_columns(points, width, p)), width


def test_generator_square_vandermonde():
    code = rs.rs_transposed_generator(2, 2, 5)
    assert code.gen_t.tolist() == [[1, 1], [1, 2]]
    assert gf.mat_rank(code.gen_t, 5) == 2


def test_generator_36_30_random_row_subsets_full_rank():
    code = rs.rs_transposed_generator(36, 30, 65537)
    rng = np.random.default_rng(0)
    for _ in range(50):
        rows = rng.choice(36, size=30, replace=False)
        assert gf.mat_rank(code.gen_t[rows], 65537) == 30


def test_any_k_rows_invertible_exhaustive_n_le_8():
    for n in range(1, 9):
        for k in range(1, n + 1):
            code = rs.rs_transposed_generator(n, k, 65537)
            for rows in combinations(range(n), k):
                assert gf.mat_rank(code.gen_t[list(rows)], 65537) == k


def test_generator_shape_errors():
    with pytest.raises(rs.InvalidShape):
        rs.rs_transposed_generator(4, 5, 7)
    with pytest.raises(rs.InvalidShape):
        rs.rs_transposed_generator(7, 2, 7)  # length needs p > n


# --- erasure completion ------------------------------------------------------


def test_erasure_complete_no_erasures_is_identity():
    code = rs.rs_transposed_generator(4, 4, 5)
    word = rs.encode(code, np.array([1, 2, 3, 4]))
    back = rs.erasure_complete(code, dict(enumerate(word)))
    assert np.array_equal(back, word)


def test_erasure_complete_two_known_positions():
    # encode (2,1) on points 1..4 over GF(5) -> (3,4,0,1); erase the
    # first two symbols and re-solve from the rest.
    code = rs.rs_transposed_generator(4, 2, 5)
    assert rs.encode(code, np.array([2, 1])).tolist() == [3, 4, 0, 1]
    assert rs.erasure_complete(code, {2: 0, 3: 1}).tolist() == [3, 4, 0, 1]


def test_erasure_complete_detects_non_codeword():
    code = rs.rs_transposed_generator(4, 2, 5)
    with pytest.raises(rs.NotACodeword):
        rs.erasure_complete(code, {0: 3, 1: 4, 2: 1})


def test_erasure_complete_too_few_known():
    code = rs.rs_transposed_generator(4, 2, 5)
    with pytest.raises(rs.TooFewKnown):
        rs.erasure_complete(code, {1: 4})


def test_erasure_complete_vector_symbols():
    code = rs.rs_transposed_generator(5, 2, 13)
    msg = np.array([[1, 2], [3, 4]], dtype=np.int64)
    word = rs.encode(code, msg)
    got = rs.erasure_complete(code, {0: word[0], 3: word[3]})
    assert np.array_equal(got, word)


def test_erasure_complete_matches_lagrange_oracle():
    p = 13
    rng = gf.FieldRng(21, p)
    for n in range(2, 8):
        for k in range(1, n + 1):
            code = rs.rs_transposed_generator(n, k, p)
            msg = rng.elements(k)
            word = rs.encode(code, msg)
            for known in combinations(range(n), k):
                got = rs.erasure_complete(code, {i: word[i] for i in known})
                want = lagrange_extend(
                    code.eval_points.tolist(),
                    [int(code.eval_points[i]) for i in known],
                    [int(word[i]) for i in known],
                    p,
                )
                assert got.tolist() == want
                assert np.array_equal(got, word)


# --- bounded-distance error correction ----------------------------------------


def test_error_correct_codeword_is_fixed_point():
    code = rs.rs_transposed_generator(6, 2, 7)
    word = rs.encode(code, np.array([3, 5]))
    assert np.array_equal(rs.error_correct(code, word), word)


def test_error_correct_single_error_mod5():
    code = rs.rs_transposed_generator(4, 2, 5)
    best, hits = nearest_codeword(code, (3, 1, 0, 1))
    assert best == 1 and hits == [(3, 4, 0, 1)]
    assert rs.error_correct(code, [3, 1, 0, 1]).tolist() == [3, 4, 0, 1]


def test_error_correct_zero_word():
    code = rs.rs_transposed_generator(4, 2, 5)
    assert rs.error_correct(code, [0, 0, 0, 0]).tolist() == [0, 0, 0, 0]


def test_error_correct_beyond_radius_fails():
    # Find a word at distance >= 2 from every codeword of the (4,2)
    # code over GF(5); the decoder must refuse it.
    code = rs.rs_transposed_generator(4, 2, 5)
    for received in product(range(5), repeat=4):
        best, _ = nearest_codeword(code, received)
        if best > code.max_errors:
            with pytest.raises(rs.DecodingFailure):
                rs.error_correct(code, np.array(received, dtype=np.int64))
            return
    pytest.fail("no word beyond the packing radius found")


def test_error_correct_vector_symbols_errors_in_distinct_columns():
    code = rs.rs_transposed_generator(7, 3, 13)
    msg = np.arange(6, dtype=np.int64).reshape(3, 2)
    word = rs.encode(code, msg)
    hit = word.copy()
    hit[0, 0] = (hit[0, 0] + 5) % 13  # column 0, row 0
    hit[4, 1] = (hit[4, 1] + 1) % 13  # column 1, row 4
    hit[6, 0] = (hit[6, 0] + 2) % 13
    assert np.array_equal(rs.error_correct(code, hit), word)


def test_error_correct_matches_bw_reference_on_random_words():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = int(rng.choice([5, 7, 13]))
        n = int(rng.integers(2, min(p, 9)))
        k = int(rng.integers(1, n + 1))
        code = rs.rs_transposed_generator(n, k, p)
        word = rng.integers(0, p, n).astype(np.int64)
        try:
            via_gao = rs.error_correct(code, word)
        except rs.DecodingFailure:
            via_gao = None
        via_bw = oracles.bw_decode_column(code, word)
        if via_gao is None:
            assert via_bw is None
        else:
            assert via_bw is not None and np.array_equal(via_gao, via_bw)


def test_recover_message_corrects_errors_among_erasures():
    # (9, 3) code with 2 positions erased: the 7 known positions correct
    # floor((7 - 3) / 2) = 2 errors, and a third is beyond the radius
    code = rs.rs_transposed_generator(9, 3, 13)
    msg = np.array([[4, 0], [7, 1], [2, 12]], dtype=np.int64)
    word = rs.encode(code, msg)
    known = {i: word[i].copy() for i in range(9) if i not in (1, 6)}
    known[0][0] = (known[0][0] + 3) % 13
    known[8][1] = (known[8][1] + 5) % 13
    known[4] = (known[4] + 1) % 13
    assert np.array_equal(rs.recover_message(code, known, correct=True), msg)
    with pytest.raises(rs.NotACodeword):
        rs.recover_message(code, known)
    known[2][0] = (known[2][0] + 1) % 13
    with pytest.raises(rs.DecodingFailure):
        rs.recover_message(code, known, correct=True)


def test_roundtrip_random_messages_and_error_patterns():
    p = 7
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        for k in range(1, n):
            code = rs.rs_transposed_generator(n, k, p)
            e = code.max_errors
            for _ in range(20):
                msg = rng.integers(0, p, k).astype(np.int64)
                word = rs.encode(code, msg)
                hit = word.copy()
                wt = int(rng.integers(0, e + 1))
                where = rng.choice(n, size=wt, replace=False)
                for i in where:
                    hit[i] = (hit[i] + int(rng.integers(1, p))) % p
                assert np.array_equal(rs.error_correct(code, hit), word)


# --- interleaved decoding against per-column Berlekamp-Welch ---------------------


def _support(rng, size, weight):
    return rng.choice(size, size=weight, replace=False)


@st.composite
def _interleaved_words(draw):
    """A code, known positions and received columns under one error pattern.

    ``shared``: every column is wrong on one support within the radius;
    ``independent``: each column has its own; ``clean-first``: column 0
    is a codeword and the others are not; ``past-radius``: a shared
    support plus one column wrong beyond the radius.
    """
    p = draw(st.sampled_from([17, 257, 65537, 3037000493]))
    k = draw(st.integers(1, 6))
    m = k + draw(st.integers(0, 9))
    n = m + draw(st.integers(0, 16 - m))
    code = rs.rs_transposed_generator(n, k, p)
    known = sorted(draw(st.permutations(range(n)))[:m])
    kind = draw(st.sampled_from(["shared", "independent", "clean-first", "past-radius"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = int(rng.integers(1, 5))
    radius = (m - k) // 2
    rows = rs.encode(code, rng.integers(0, p, (k, width)))[known]
    shared = _support(rng, m, int(rng.integers(min(1, radius), radius + 1)))
    for j in range(width):
        if kind in ("shared", "past-radius"):
            where = shared
        elif kind == "clean-first" and j == 0:
            where = []
        else:
            where = _support(rng, m, int(rng.integers(0, radius + 1)))
        rows[where, j] = (rows[where, j] + rng.integers(1, p, len(where))) % p
    if kind == "past-radius" and width and radius < m:
        j = int(rng.integers(0, width))
        where = _support(rng, m, int(rng.integers(radius + 1, m + 1)))
        rows[where, j] = (rows[where, j] + rng.integers(1, p, len(where))) % p
    return code, known, rows


@pytest.mark.parametrize("correct", [False, True])
@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=_interleaved_words())
def test_interleaved_decoding_matches_per_column_reference(case, correct):
    code, known, rows = case
    # The code on the known positions: Vandermonde rows depend only on their own point.
    sub = rs.RsCode(n=len(known), k=code.k, p=code.p, eval_points=code.eval_points[known], gen_t=code.gen_t[known])
    radius = None if correct else 0
    words = [oracles.bw_decode_column(sub, rows[:, j], radius) for j in range(rows.shape[1])]
    failed = [j for j, word in enumerate(words) if word is None]
    received = {pos: rows[i] for i, pos in enumerate(known)}
    if failed and correct:
        with pytest.raises(rs.DecodingFailure, match=f"of column {failed[0]}$"):
            rs.recover_message(code, received, correct=True)
    elif failed:
        with pytest.raises(rs.NotACodeword, match="^known positions fit no codeword$"):
            rs.recover_message(code, received)
    else:
        message = rs.recover_message(code, received, correct=correct)
        assert message.shape == (code.k, rows.shape[1])
        assert np.array_equal(rs.encode(sub, message), np.stack(words, axis=1))


@st.composite
def _located_words(draw):
    """A code, known positions and received words for the error locator.

    Column 0 is wrong on ``errors`` known positions, drawn below, at or
    above the radius; each other column is wrong on a subset of that
    support or, when ``stray``, on its own support, which may fall
    outside it.  ``erased`` leaves some positions unknown.
    """
    p = draw(st.sampled_from([2, 3, 13, 65537, 3037000493]))
    n = draw(st.integers(1, min(p - 1, 24)))
    k = draw(st.integers(1, n))
    erased = draw(st.booleans()) and n > k
    m = draw(st.integers(k, n - 1)) if erased else n
    code = rs.rs_transposed_generator(n, k, p)
    known = sorted(draw(st.permutations(range(n)))[:m])
    radius = (m - k) // 2
    where = draw(st.sampled_from(["below", "at", "above"]))
    errors = {
        "below": draw(st.integers(0, max(radius - 1, 0))),
        "at": radius,
        "above": min(m, radius + draw(st.integers(1, 2))),
    }[where]
    stray = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = int(rng.integers(1, 5))
    word = rs.encode(code, rng.integers(0, p, (k, width)))
    support = _support(rng, m, errors)
    for j in range(width):
        if j == 0:
            hit = support
        elif stray:
            hit = _support(rng, m, int(rng.integers(0, m + 1)))
        else:
            hit = support[rng.random(errors) < 0.5]
        rows = [known[i] for i in hit]
        word[rows, j] = (word[rows, j] + rng.integers(1, p, len(rows))) % p
    return code, {i: word[i] for i in known}


def _outcome(decode):
    try:
        return "message", decode()
    except rs.CodingError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=_located_words())
def test_error_locator_matches_gao_oracle(case):
    # Syndromes and Berlekamp-Massey against one Gao run per column: the
    # same message, or the same refusal naming the same column.
    code, known = case
    got = _outcome(lambda: rs.recover_message(code, known, correct=True))
    want = _outcome(lambda: oracles.gao_recover_message(code, known))
    assert got[0] == want[0]
    if got[0] == "message":
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


def test_interleaved_decoding_zero_width_and_single_column():
    code = rs.rs_transposed_generator(9, 3, 13)
    empty = {i: np.zeros(0, dtype=np.int64) for i in range(9)}
    assert rs.recover_message(code, empty, correct=True).shape == (3, 0)
    assert rs.error_correct(code, np.zeros((9, 0), dtype=np.int64)).shape == (9, 0)
    msg = np.array([[5], [0], [11]], dtype=np.int64)
    hit = rs.encode(code, msg)
    hit[[2, 7], 0] = (hit[[2, 7], 0] + [4, 9]) % 13
    assert np.array_equal(rs.recover_message(code, dict(enumerate(hit)), correct=True), msg)


# --- puncturing: a code read on a subset of its positions ---------------------


def test_puncture_identity():
    code = rs.rs_transposed_generator(5, 3, 11)
    msg = np.array([4, 0, 9], dtype=np.int64)
    assert np.array_equal(rs.recover_message(code, dict(enumerate(rs.encode(code, msg)))), msg)


def test_puncture_keeps_eval_points():
    code = rs.rs_transposed_generator(4, 2, 7)
    msg = np.array([3, 5], dtype=np.int64)
    word = rs.encode(code, msg)
    # Positions 0..2 decode on their own points 1..3.
    known = {i: word[i] for i in (0, 1, 2)}
    assert np.array_equal(rs.recover_message(code, known), msg)
    assert np.array_equal(rs.recover_message(code, known, correct=True), msg)


def test_puncture_too_short():
    code = rs.rs_transposed_generator(4, 3, 7)
    with pytest.raises(rs.TooFewKnown):
        rs.recover_message(code, {0: 1, 1: 2})


def test_punctured_long_code_corrects_91_errors():
    # The (392, 182) code read on positions 28..391 keeps dimension 182,
    # so its packing radius is floor((364 - 182) / 2) = 91.
    p = 65537
    code = rs.rs_transposed_generator(392, 182, p)
    rng = np.random.default_rng(91)
    msg = rng.integers(0, p, 182)
    word = rs.encode(code, msg)
    wrong = rng.choice(np.arange(28, 392), 92, replace=False)
    known = {i: word[i] for i in range(28, 392)}
    for i, hit in zip(wrong, rng.integers(1, p, 92)):
        known[i] = (word[i] + hit) % p
    with pytest.raises(rs.DecodingFailure, match="^no codeword within 91 errors of column 0$"):
        rs.recover_message(code, known, correct=True)
    known[wrong[0]] = word[wrong[0]]
    assert np.array_equal(rs.recover_message(code, known, correct=True), msg)


def test_punctured_code_still_decodes():
    code = rs.rs_transposed_generator(8, 2, 13)
    msg = np.array([5, 9], dtype=np.int64)
    word = rs.encode(code, msg)
    keep = (1, 3, 4, 6, 7)
    known = {i: word[i] for i in keep}
    known[4] = (known[4] + 4) % 13
    assert np.array_equal(rs.recover_message(code, known, correct=True), msg)


def test_message_from_codeword_roundtrip_and_rejection():
    code = rs.rs_transposed_generator(6, 3, 11)
    msg = np.array([1, 2, 3], dtype=np.int64)
    word = rs.encode(code, msg)
    assert np.array_equal(rs.message_from_codeword(code, word), msg)
    word[5] = (word[5] + 1) % 11
    with pytest.raises(rs.NotACodeword):
        rs.message_from_codeword(code, word)
