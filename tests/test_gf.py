import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coded_pir import gf


# --- rank ---------------------------------------------------------------


def test_rank_identity():
    assert gf.mat_rank(np.eye(3, dtype=np.int64), 7) == 3


def test_rank_zero_matrix():
    assert gf.mat_rank(np.zeros((2, 2), dtype=np.int64), 7) == 0


def test_rank_tall_vandermonde_mod5():
    # Rows (1,1),(1,2),(1,3),(1,4): first two rows already independent,
    # and only two columns exist, so the rank is exactly 2.
    a = [[1, 1], [1, 2], [1, 3], [1, 4]]
    assert gf.mat_rank(a, 5) == 2


def test_rank_transpose_agrees():
    rng = gf.FieldRng(123, 13)
    for _ in range(25):
        a = rng.matrix(4, 6)
        assert gf.mat_rank(a, 13) == gf.mat_rank(a.T, 13)


def test_rank_counts_dependent_rows():
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)  # row1 = 2*row0 mod 7
    assert gf.mat_rank(a, 7) == 2


@pytest.mark.parametrize("call", [
    lambda a: gf.mat_rank(a, 5),
    lambda a: gf.factor(a, 5),
    lambda a: gf.row_reduce(a, 5),
    lambda a: gf.factor(np.eye(3, dtype=np.int64), 5).solve(a),
], ids=["mat_rank", "factor", "row_reduce", "Factored.solve"])
@pytest.mark.parametrize("a", [[1, 2], 3, np.zeros((2, 2, 2), dtype=np.int64)], ids=["1-D", "0-D", "3-D"])
def test_elimination_refuses_non_matrices_naming_the_shape(call, a):
    with pytest.raises(gf.FieldError, match=re.escape(str(np.shape(a)))):
        call(a)


@pytest.mark.parametrize("call,message", [
    (lambda: gf.mat_mul(3, 4, 7), "() @ ()"),
    (lambda: gf.mat_mul([1, 2], 4, 7), "(2,) @ ()"),
    (lambda: gf.mat_mul(3, [[1], [2]], 7), "() @ (2, 1)"),
    (lambda: gf.mat_mul([[1, 2]], [1, 2, 3], 7), "(1, 2) @ (3,)"),
    (lambda: gf.FieldRng(1, 7).elements(-1), "got -1"),
    (lambda: gf.FieldRng(1, 7).nonzero(-3), "got -3"),
    (lambda: gf.FieldRng(1, 7).matrix(-2, -3), "(-2, -3)"),
    (lambda: gf.FieldRng(1, 7).matrix(2, -3), "(2, -3)"),
], ids=["0-D by 0-D", "1-D by 0-D", "0-D by 2-D", "inner mismatch",
        "negative count", "negative nonzero count", "negative shape", "one negative side"])
def test_products_and_draws_refuse_bad_shapes_naming_them(call, message):
    with pytest.raises(gf.FieldError, match=re.escape(message)):
        call()


# --- solve / inverse ------------------------------------------------------


def test_solve_identity_returns_rhs():
    b = np.array([[3, 1], [4, 1]], dtype=np.int64)
    x = gf.factor(np.eye(2, dtype=np.int64), 5).solve(b)
    assert np.array_equal(x, b)


def test_solve_two_by_two_mod5():
    x = gf.factor([[1, 1], [1, 2]], 5).solve([3, 4])
    assert x.tolist() == [2, 1]


def test_solve_rank_deficient_inconsistent():
    with pytest.raises(gf.NoSolution):
        gf.factor([[1, 1], [2, 2]], 5).solve([1, 0])


def test_solve_rank_deficient_consistent_still_rejected():
    # A singular system has no unique answer, so this must refuse even
    # though solutions exist.
    with pytest.raises(gf.NoSolution):
        gf.factor([[1, 1], [2, 2]], 5).solve([1, 2])


def test_solve_roundtrip_random_invertible():
    p = 65537
    rng = gf.FieldRng(5, p)
    for _ in range(10):
        drawn = gf.sample_invertible(5, p, rng)
        b = rng.matrix(5, 3)
        x = drawn.solve(b)
        assert np.array_equal(gf.mat_mul(drawn.matrix, x, p), b)
        assert x.tolist() == oracles.int_solve(drawn.matrix, b, p)


def test_inverse_roundtrip():
    p = 97
    rng = gf.FieldRng(9, p)
    drawn = gf.sample_invertible(6, p, rng)
    inverse = drawn.solve(np.eye(6, dtype=np.int64))
    assert np.array_equal(gf.mat_mul(drawn.matrix, inverse, p), np.eye(6, dtype=np.int64))


def test_inverse_singular_raises():
    with pytest.raises(gf.NoSolution):
        gf.factor([[1, 1], [2, 2]], 5).solve(np.eye(2, dtype=np.int64))


# --- differential: elimination against Python-int Gauss-Jordan ------------------

# 3037000493 is the largest prime <= MAX_MODULUS, where products of two
# reduced entries come closest to the int64 range.
DIFFERENTIAL_MODULI = (2, 3, 65537, 3037000493)


def _low_rank(rows, cols, rank, p, rng):
    left = rng.integers(0, p, (rows, rank)).astype(object)
    right = rng.integers(0, p, (rank, cols)).astype(object)
    return ((left @ right) % p).astype(np.int64)


def _test_matrices(p, rng):
    """Square, wide, tall, zero and rank-deficient matrices over GF(p)."""
    for rows, cols in [(1, 1), (4, 4), (6, 6), (3, 7), (7, 3), (1, 5), (5, 1)]:
        yield rng.integers(0, p, (rows, cols)).astype(np.int64)
    yield np.zeros((3, 4), dtype=np.int64)
    for rows, cols, rank in [(5, 5, 3), (4, 7, 2), (7, 4, 2), (6, 6, 1)]:
        yield _low_rank(rows, cols, rank, p, rng)
    square = rng.integers(0, p, (5, 5)).astype(np.int64)
    square[3] = square[1]  # singular with a repeated row
    yield square


def _check_against_oracles(a, p, rng, limits):
    """row_reduce (full and at each pivot_cols limit), mat_rank and
    factor(a).solve equal the Python-int Gauss-Jordan; the factored solve
    refuses every system that is not square."""
    rows, cols = a.shape
    want, want_pivots = oracles.int_row_reduce(a, p)
    got, got_pivots = gf.row_reduce(a, p)
    assert got.tolist() == want and got_pivots == want_pivots, (p, a)
    for limit in limits:
        want, want_pivots = oracles.int_row_reduce(a, p, pivot_cols=limit)
        got, got_pivots = gf.row_reduce(a, p, pivot_cols=limit)
        assert got.tolist() == want and got_pivots == want_pivots, (p, a, limit)
    assert gf.mat_rank(a, p) == oracles.int_rank(a, p), (p, a)

    f = gf.factor(a, p)
    assert f.rank == oracles.int_rank(a, p), (p, a)
    x = rng.integers(0, p, (cols, 2)).astype(object)
    consistent = ((a.astype(object) @ x) % p).astype(np.int64)
    rhs = [consistent, rng.integers(0, p, (rows, 2)).astype(np.int64)]
    if rows == cols:
        rhs.append(np.eye(rows, dtype=np.int64))  # the inverse
    for b in rhs:
        want = oracles.int_solve(a, b, p) if rows == cols else None
        if want is None:
            with pytest.raises(gf.NoSolution):
                f.solve(b)
        else:
            assert f.solve(b).tolist() == want, (p, a, b)


def test_elimination_matches_python_int_reference():
    assert gf.is_prime(3037000493) and not any(
        gf.is_prime(q) for q in range(3037000494, gf.MAX_MODULUS + 1)
    )
    rng = np.random.default_rng(2024)
    for p in DIFFERENTIAL_MODULI:
        for a in _test_matrices(p, rng):
            _check_against_oracles(a, p, rng, range(a.shape[1]))


def _panel_matrices(p, rng):
    """Matrices that span several elimination panels."""
    w = gf._PANEL
    for rows, cols in [(w - 1, w - 1), (w, w), (w + 1, w + 1), (2 * w + 1, 2 * w + 1),
                       (w + 1, 2 * w + 1), (2 * w + 1, w + 1), (24, 100), (100, 24)]:
        yield rng.integers(0, p, (rows, cols)).astype(np.int64)
    # Ranks that are not a multiple of the panel width.
    yield _low_rank(70, 70, w + 5, p, rng)
    yield _low_rank(40, 90, w + 1, p, rng)
    yield _low_rank(90, 40, w - 1, p, rng)
    # A run of zero columns across the first panel boundary.
    a = rng.integers(0, p, (50, 70)).astype(np.int64)
    a[:, w - 4 : w + 9] = 0
    yield a


def test_blocked_elimination_matches_python_int_reference():
    rng = np.random.default_rng(2025)
    w = gf._PANEL
    for p in DIFFERENTIAL_MODULI:
        for a in _panel_matrices(p, rng):
            # pivot_cols limits inside the first panel, on its boundary and
            # inside the second
            limits = [c for c in (w // 2 + 1, w, w + 13) if c < a.shape[1]]
            _check_against_oracles(a, p, rng, limits)


@st.composite
def _shapes_and_ranks(draw):
    rows = draw(st.integers(1, 72))
    cols = draw(st.integers(1, 72))
    full = min(rows, cols)
    return rows, cols, full - draw(st.integers(0, full))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    shape=_shapes_and_ranks(),
    p=st.sampled_from(DIFFERENTIAL_MODULI),
    seed=st.integers(0, 2**32 - 1),
)
def test_elimination_properties(shape, p, seed):
    rows, cols, rank = shape
    rng = np.random.default_rng(seed)
    _check_against_oracles(_low_rank(rows, cols, rank, p, rng), p, rng, limits=())


# --- factored solves ------------------------------------------------------------

# Sizes around the panel width.  A square matrix's panel rides its
# trailing columns along iff at most _PANEL of them are left: 64 has only
# such panels, while 65 and 100 also have panels that take products.
FACTOR_SIZES = (1, 31, 32, 33, 64, 65, 100)
RHS_WIDTHS = (1, 2, 7)


def _invertible(n, p, rng):
    """A random invertible n x n matrix: unit lower times unit upper triangular, rows shuffled."""
    lower = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)
    return gf.mat_mul(lower, upper, p)[rng.permutation(n)]


def _check_factored_solve(a, p, rng, widths=RHS_WIDTHS):
    """factor(a).solve equals the Python-int solve for every right-hand
    side width, and refuses exactly what it refuses."""
    n = a.shape[0]
    f = gf.factor(a, p)
    b = rng.integers(0, p, (n, sum(widths))).astype(np.int64)
    want = oracles.int_solve(a, b, p)
    if want is None:
        assert f.rank < n
        with pytest.raises(gf.NoSolution):
            f.solve(b)
        return
    assert f.rank == n
    got = f.solve(b)
    assert got.tolist() == want, (p, n)
    start = 0
    for w in widths:
        assert np.array_equal(f.solve(b[:, start : start + w]), got[:, start : start + w]), (p, n, w)
        start += w
    assert np.array_equal(f.solve(b[:, 0]), got[:, 0]), (p, n)


@pytest.mark.parametrize("p", DIFFERENTIAL_MODULI)
def test_factored_solve_matches_python_int_reference(p):
    rng = np.random.default_rng(2026)
    for n in FACTOR_SIZES:
        a = _invertible(n, p, rng)
        _check_factored_solve(a, p, rng)
        assert np.array_equal(gf.factor(a, p).matrix, a)
    for n in (33, 70):  # singular, with ranks off the panel grid
        a = _low_rank(n, n, n - 2, p, rng)
        assert gf.factor(a, p).rank == oracles.int_rank(a, p)
        _check_factored_solve(a, p, rng, widths=(2,))


def test_factored_solve_refuses_non_square():
    f = gf.factor([[1, 0], [0, 1], [1, 1]], 7)
    assert f.rank == 2
    with pytest.raises(gf.NoSolution):
        f.solve([1, 2, 3])
    with pytest.raises(gf.FieldError):
        gf.factor(np.eye(3, dtype=np.int64), 7).solve([1, 2])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 72),
    deficiency=st.sampled_from((0, 0, 0, 1, 5)),
    width=st.integers(1, 7),
    p=st.sampled_from(DIFFERENTIAL_MODULI),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_solve_properties(n, deficiency, width, p, seed):
    rng = np.random.default_rng(seed)
    a = _invertible(n, p, rng) if deficiency == 0 else _low_rank(n, n, max(0, n - deficiency), p, rng)
    # The kernel that now keeps row operations still ranks and reduces as before.
    assert gf.mat_rank(a, p) == gf.factor(a, p).rank == oracles.int_rank(a, p)
    got, pivots = gf.row_reduce(a, p)
    assert (got.tolist(), pivots) == oracles.int_row_reduce(a, p)
    _check_factored_solve(a, p, rng, widths=(width,))


# --- multiplication -------------------------------------------------------


def test_mat_mul_matches_python_ints_small():
    rng = gf.FieldRng(3, 11)
    a, b = rng.matrix(3, 4), rng.matrix(4, 2)
    want = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(4)) % 11 for j in range(2)] for i in range(3)]
    assert gf.mat_mul(a, b, 11).tolist() == want


def test_mat_mul_chunked_large_modulus():
    # 2**31 - 1 forces the chunked accumulation path; verify exactness
    # against plain Python integers.
    p = 2**31 - 1
    assert gf.is_prime(p)
    rng = gf.FieldRng(4, p)
    a, b = rng.matrix(3, 7), rng.matrix(7, 3)
    want = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(7)) % p for j in range(3)] for i in range(3)]
    assert gf.mat_mul(a, b, p).tolist() == want


def _int_product(a, b, p):
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    return [[sum(int(x) * int(y[j]) for x, y in zip(row, b)) % p for j in range(len(b[0]))]
            for row in a]


def test_reduced_product_equals_mat_mul_on_reduced_inputs():
    # At p=3037000493 only one addend fits in int64, so every inner
    # dimension above 1 takes the chunked accumulation path.
    rng = np.random.default_rng(11)
    for p in DIFFERENTIAL_MODULI:
        for rows, inner, cols in [(1, 1, 1), (3, 7, 2), (5, 33, 4), (4, 65, 1)]:
            a = rng.integers(0, p, (rows, inner)).astype(np.int64)
            b = rng.integers(0, p, (inner, cols)).astype(np.int64)
            got = gf._mat_mul_reduced(a, b, p)
            assert np.array_equal(got, gf.mat_mul(a, b, p)), (p, rows, inner, cols)
            assert got.tolist() == _int_product(a, b, p), (p, rows, inner, cols)
            vec = gf._mat_mul_reduced(a, b[:, 0], p)
            assert np.array_equal(vec, gf.mat_mul(a, b[:, 0], p)), (p, rows, inner)
            a2 = rng.integers(0, p, (rows, inner)).astype(np.int64)
            b2 = rng.integers(0, p, (inner, cols)).astype(np.int64)
            stacked = gf._mat_mul_reduced(np.stack([a, a2]), np.stack([b, b2]), p)
            assert np.array_equal(stacked[1], gf.mat_mul(a2, b2, p)), (p, rows, inner, cols)
            assert np.array_equal(stacked[0], got), (p, rows, inner, cols)


def test_mat_mul_reduces_negative_and_unreduced_inputs():
    rng = np.random.default_rng(12)
    for p in DIFFERENTIAL_MODULI:
        bound = min(4 * p, 2**62)
        a = rng.integers(-bound, bound, (3, 9)).astype(np.int64)
        b = rng.integers(-bound, bound, (9, 2)).astype(np.int64)
        want = _int_product([[x % p for x in row] for row in a.tolist()],
                            [[x % p for x in row] for row in b.tolist()], p)
        assert gf.mat_mul(a, b, p).tolist() == want, p


# --- float64 products and delayed reduction: the kernel's switches ----------------

# Moduli around the switches of _mat_mul_reduced and _eliminate.  At
# 1048573, the largest prime below 2**20, products take float64 BLAS up
# to inner dimension 8192, where inner * (p - 1)**2 + p <= 2**53 stops
# holding.  Panels of 32 pivots reduce their work copy once at 536870909,
# the largest prime with 32 * (p - 1)**2 + p < 2**63, and also after
# pivot 31 at 536870923, the next prime.  A full panel's trailing update
# adds a 32-term product to reduced entries in float64, reduced once,
# while 32 * (p - 1)**2 + (p - 1) + p <= 2**53: up to 16777213, not at
# 16777259, the next prime.  3037000493 takes int64 products and reduces
# after every pivot.
KERNEL_MODULI = (2, 3, 65537, 1048573, 16777213, 16777259, 536870909, 536870923, 3037000493)


def test_kernel_moduli_straddle_the_switches():
    assert all(gf.is_prime(p) for p in KERNEL_MODULI)
    assert not any(gf.is_prime(q) for q in range(1048574, 2**20))
    assert (2**53 - 1048573) // (1048573 - 1) ** 2 == 8192
    assert [(2**63 - p) // (p - 1) ** 2 for p in (536870909, 536870923, 3037000493)] == [32, 31, 1]
    assert not any(gf.is_prime(q) for q in range(536870910, 536870923))
    fused = [32 * (p - 1) ** 2 + (p - 1) + p <= 2**53 for p in (16777213, 16777259)]
    assert fused == [True, False]
    assert not any(gf.is_prime(q) for q in range(16777214, 16777259))


def _object_product(a, b, p):
    return ((a.astype(object) @ b.astype(object)) % p).tolist()


# (rows, inner, cols): both sides of the 2**53 switch at 1048573 and of
# _FLOAT_MIN = 2**15 multiply-adds; at and past the row-block cap,
# 2**19 // (32 * 128) = 128 rows; and a row wider than the cap, which
# splits columns (2**19 // 2048 = 256 of them per call).
PRODUCT_SHAPES = [(2, 8192, 2), (2, 8193, 2), (16, 16, 16), (32, 32, 32),
                  (128, 32, 128), (129, 32, 128), (1, 2048, 257)]


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_reduced_product_matches_python_ints_across_the_switches(p, monkeypatch):
    float_calls = []
    float_product = gf._float_product

    def counted(a, b, q, add=None):
        float_calls.append(a.shape + b.shape[1:])
        return float_product(a, b, q, add)

    monkeypatch.setattr(gf, "_float_product", counted)
    rng = np.random.default_rng(p % 1000)
    for rows, inner, cols in PRODUCT_SHAPES:
        # Random entries, then every entry p - 1: the largest sums there are.
        for a, b in [(rng.integers(0, p, (rows, inner)), rng.integers(0, p, (inner, cols))),
                     (np.full((rows, inner), p - 1), np.full((inner, cols), p - 1))]:
            got = gf._mat_mul_reduced(a, b, p)
            assert got.dtype == np.int64 and got.tolist() == _object_product(a, b, p), (p, rows, inner, cols)
    exact = {(r, i, c) for r, i, c in PRODUCT_SHAPES if i * (p - 1) ** 2 + p <= 2**53 and r * i * c >= 2**15}
    assert set(float_calls) == exact
    if p == 1048573:
        assert exact == {(2, 8192, 2), (32, 32, 32), (128, 32, 128), (129, 32, 128), (1, 2048, 257)}
    if p >= 536870909:
        assert float_calls == []


def test_float_product_corrects_quotients_one_off():
    # 103 * fl(1/103) < 1, so a sum of exactly p gets the quotient 0 and
    # needs the correction down.
    p = 103
    assert np.floor(p * (1.0 / p)) == 0
    b = np.tile([[51], [52]], (1, 256))
    got = gf._mat_mul_reduced(np.ones((64, 2), dtype=np.int64), b, p)
    assert got.shape == (64, 256) and not got.any()
    # 94906249 is the largest prime with a float64 product at inner
    # dimension 1.  A product a * b = -1 mod p lies just below a multiple
    # of p, and floor(c * (1/p)) can round up past it: the correction up.
    # The outer product below puts such products on its diagonal.
    p = 94906249
    assert gf.is_prime(p) and (p - 1) ** 2 + p <= 2**53 < (94906297 - 1) ** 2 + 94906297
    rng = np.random.default_rng(15)
    a = rng.integers(p // 2, p, 256)
    b = np.array([-pow(int(x), -1, p) % p for x in a])
    assert np.any(np.floor((a * b).astype(np.float64) * (1.0 / p)) > (a * b) // p)
    got = gf._mat_mul_reduced(a[:, None], b[None, :], p)
    assert np.all(np.diag(got) == p - 1)
    assert got.tolist() == _object_product(a[:, None], b[None, :], p)


def _kernel_matrices(p, rng):
    """Matrices across the panel width, the carry switch and the row-block cap."""
    w = gf._PANEL
    # n x n with n <= 2 * w only rides trailing columns along; from
    # 2 * w + 1 on, the first panel takes a product.
    for rows, cols in [(w - 1, w - 1), (w, w), (w + 1, w + 1), (2 * w, 2 * w), (2 * w + 1, 2 * w + 1),
                       (70, 40), (40, 70)]:
        yield rng.integers(0, p, (rows, cols)).astype(np.int64)
    # Ranks off the panel grid, and a run of zero columns across a panel boundary.
    yield _low_rank(66, 66, w + 5, p, rng)
    yield _low_rank(66, 66, 2 * w + 1, p, rng)
    yield _low_rank(70, 40, w - 1, p, rng)
    a = rng.integers(0, p, (50, 70)).astype(np.int64)
    a[:, w - 4 : w + 9] = 0
    yield a
    # Entries p - 1 and 0 only: the pivot rows and multiples start at p - 1.
    yield (p - 1) * rng.integers(0, 2, (66, 66)).astype(np.int64)
    # A product panel whose first pivot candidates are zero: its pivot
    # search swaps rows, so the trailing rows are gathered into its order.
    a = rng.integers(1, p, (2 * w + 6, 2 * w + 6)).astype(np.int64)
    a[:3, 0] = 0
    yield a
    if p == 65537:
        # The first panel product is 98 x 32 by 32 x 228, two row blocks.
        yield rng.integers(0, p, (130, 260)).astype(np.int64)


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_factor_panels_match_python_int_reference(p):
    rng = np.random.default_rng(p % 997)
    for a in _kernel_matrices(p, rng):
        rank, panels = oracles.int_factor(a, p, gf._PANEL)
        f = gf.factor(a, p)
        assert f.rank == rank == gf.mat_rank(a, p), (p, a.shape)
        got = [(pn.row, pn.order.tolist(), pn.combos.tolist(), pn.top.tolist()) for pn in f.panels]
        assert got == panels, (p, a.shape)
        assert all(x.dtype == np.int64 for pn in f.panels for x in pn[1:])
        reduced, pivots = gf.row_reduce(a, p)
        assert (reduced.tolist(), pivots) == oracles.int_row_reduce(a, p), (p, a.shape)
        if a.shape[0] == a.shape[1]:
            b = rng.integers(0, p, (a.shape[0], 3)).astype(np.int64)
            if rank < a.shape[0]:
                with pytest.raises(gf.NoSolution):
                    f.solve(b)
            else:
                assert _object_product(a, f.solve(b), p) == b.tolist(), (p, a.shape)


@pytest.mark.parametrize("p", (65537, 16777213, 16777259, 3037000493))
def test_trailing_update_fuses_below_the_switch(p, monkeypatch):
    calls = []
    float_product = gf._float_product

    def counted(a, b, q, add=None):
        calls.append((a.shape + b.shape[1:], add is not None))
        return float_product(a, b, q, add)

    monkeypatch.setattr(gf, "_float_product", counted)
    rng = np.random.default_rng(p % 991)
    # Two product panels: 68 x 32 by 32 x 68 and 36 x 32 by 32 x 36, both
    # past _FLOAT_MIN multiply-adds; the third panel rides along.
    a = rng.integers(1, p, (100, 100)).astype(np.int64)
    rank, panels = oracles.int_factor(a, p, gf._PANEL)
    f = gf.factor(a, p)
    got = [(pn.row, pn.order.tolist(), pn.combos.tolist(), pn.top.tolist()) for pn in f.panels]
    assert f.rank == rank == 100 and got == panels, p
    fused = [((68, 32, 68), True), ((36, 32, 36), True)]
    assert calls == (fused if p <= 16777213 else [])


# --- deterministic randomness ---------------------------------------------


def test_rng_streams_are_reproducible():
    a = gf.FieldRng(42, 65537)
    b = gf.FieldRng(42, 65537)
    assert np.array_equal(a.elements(100), b.elements(100))
    assert a.below(17) == b.below(17)
    assert a.permutation(9) == b.permutation(9)


def test_rng_batching_does_not_change_the_stream():
    a = gf.FieldRng(7, 101)
    b = gf.FieldRng(7, 101)
    one = np.concatenate([a.elements(3), a.elements(5)])
    other = b.elements(8)
    assert np.array_equal(one, other)


def test_rng_outputs_in_range():
    rng = gf.FieldRng(0, 5)
    vals = rng.elements(2000)
    assert vals.min() >= 0 and vals.max() < 5
    # every residue shows up in a healthy stream
    assert set(np.unique(vals).tolist()) == {0, 1, 2, 3, 4}


def test_rng_below_and_nonzero():
    rng = gf.FieldRng(11, 13)
    assert all(0 <= rng.below(6) < 6 for _ in range(200))
    assert all(1 <= v < 13 for v in rng.nonzero(200))


@pytest.mark.parametrize("p", DIFFERENTIAL_MODULI)
def test_rng_batched_draws_match_scalar_below(p):
    for seed in (0, 5, 2**64 - 1):
        for n in (0, 1, 7, 300):
            batched, scalar = gf.FieldRng(seed, p), gf.FieldRng(seed, p)
            assert batched.elements(n).tolist() == [scalar.below(p) for _ in range(n)]
            assert batched.counter == scalar.counter
            assert batched.nonzero(n).tolist() == [scalar.below(p - 1) + 1 for _ in range(n)]
            assert batched.counter == scalar.counter


def test_rng_batched_rejection_matches_scalar_below():
    # Near 2**62 a quarter of the raw words fall in the rejected range,
    # so the batched loop has to refill several times.
    bound = 2**62 + 1
    batched, scalar = gf.FieldRng(3, 65537), gf.FieldRng(3, 65537)
    got = batched._below_many(500, bound).tolist()
    assert got == [scalar.below(bound) for _ in range(500)]
    assert batched.counter == scalar.counter > 600


def test_permutation_is_a_permutation():
    rng = gf.FieldRng(2, 65537)
    for n in (1, 2, 5, 12):
        assert sorted(rng.permutation(n)) == list(range(n))


def test_derive_seed_separates_streams():
    seeds = {gf.derive_seed(99, s) for s in range(50)}
    assert len(seeds) == 50


# --- invertible sampling ----------------------------------------------------


def test_sample_invertible_one_by_one_nonzero():
    m = gf.sample_invertible(1, 65537, 0).matrix
    assert m.shape == (1, 1) and int(m[0, 0]) != 0


def test_sample_invertible_full_rank():
    m = gf.sample_invertible(3, 65537, 5).matrix
    assert gf.mat_rank(m, 65537) == 3


def test_sample_invertible_distinct_across_seeds():
    # 100 seeds, all pairwise distinct draws (spot check of uniformity).
    seen = {gf.sample_invertible(4, 65537, seed).matrix.tobytes() for seed in range(100)}
    assert len(seen) == 100


def test_sample_invertible_reproducible():
    a = gf.sample_invertible(4, 65537, 77).matrix
    b = gf.sample_invertible(4, 65537, 77).matrix
    assert np.array_equal(a, b)


def test_sample_invertible_keeps_the_draws_of_a_rank_test_loop():
    # The factored draw takes the same words from the stream as drawing
    # and ranking until full rank, and leaves the counter where it would.
    for p, size, seed in [(2, 4, 1), (3, 5, 2), (65537, 40, 3)]:
        rng, ref = gf.FieldRng(seed, p), gf.FieldRng(seed, p)
        drawn = gf.sample_invertible(size, p, rng)
        while gf.mat_rank(want := ref.matrix(size, size), p) < size:
            pass
        assert np.array_equal(drawn.matrix, want) and rng.counter == ref.counter
        b = ref.matrix(size, 3)
        assert np.array_equal(gf.mat_mul(drawn.matrix, drawn.solve(b), p), b)


def test_modulus_validation():
    with pytest.raises(gf.FieldError):
        gf.FieldRng(0, 10)
    with pytest.raises(gf.FieldError):
        gf.check_modulus(gf.MAX_MODULUS + 2)
