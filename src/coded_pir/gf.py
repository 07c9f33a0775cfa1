"""Exact dense linear algebra over a prime field GF(p).

Matrices are numpy int64 arrays with entries reduced into [0, p).  All
routines are exact, for any prime modulus up to ``MAX_MODULUS`` (just
above 3 * 10**9).  A product runs in float64 BLAS when every sum it forms
stays below 2**53, inner * (p - 1)**2 + p <= 2**53, which float64 holds
exactly in any summation order; it is reduced by multiplying with 1/p.
Larger moduli and inner dimensions take int64 products, accumulated in
chunks small enough that no partial sum leaves the int64 range, and so
do products too small to repay the conversion.  A float64 product goes
to BLAS in blocks of at most 2**19 multiply-adds: numpy's OpenBLAS runs
larger calls on its thread pool, and for about its first second a pooled
call can cost hundreds of times a single-threaded one.

One elimination kernel, ``_eliminate``, is behind ``row_reduce``,
``mat_rank`` and ``factor``, and through ``factor`` behind
``sample_invertible``.  It is blocked: pivots are found column by column
inside narrow panels, and the rest of the matrix is updated with one
product per panel, so the O(n**3) work runs in matmul and each pivot
touches only its panel.  The panel's work copy is held transposed, so
each pivot's update runs along rows of the copy as long as the matrix is
tall: at L <= 384, numpy's cost on short strided rows, not the panel's
width, set the price of a pivot.  Inside a panel, reductions are delayed
while width * (p - 1)**2 + p < 2**63: a pivot reduces only the column it
pivots on and its own row, and the panel is reduced once at its end.
The rows below a panel add their product with its pivot rows in float64
and are reduced once, while width * (p - 1)**2 + (p - 1) + p <= 2**53,
as FFLAS-FFPACK's ``fgemm`` does with its beta term.  They are updated
in place: each swap of the pivot search moves the two rows of ``m``
right of the panel too, so they need no gather into the panel's order.
``factor`` keeps each panel's row operations, which a rank test computes
anyway, as a :class:`Factored` matrix, whose ``solve`` is the one
square solve: a system solves through them with a few products per
panel, and ``sample_invertible`` returns its draw so factored, with no
inverse ever taken.

Randomness comes from a counter-based SplitMix64 stream mapped onto field
elements by rejection sampling below the largest multiple of p, which
keeps every draw uniform and every run bit-reproducible from a single
64-bit seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_MODULUS = 65537

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Largest supported modulus: row operations form products of two reduced
# entries, which must stay below 2**63.
MAX_MODULUS = 3037000499

# Pivot columns per elimination panel: wide enough that the per-panel
# products carry most of the work, narrow enough that the per-pivot
# passes over the panel stay cheap.  With the transposed work copy, 32
# is the fastest of 16, 32 and 64 up to L = 384; 64 only draws level
# with it at L = 1296.
_PANEL = 32

# Products of fewer multiply-adds stay on int64: below this the float64
# conversions and reduction cost more than the int64 product.
_FLOAT_MIN = 2**15

# Most multiply-adds per float64 BLAS call; numpy's OpenBLAS runs larger
# calls on its thread pool, which is slow to warm up.
_BLAS_CALL = 2**19


class FieldError(Exception):
    pass


class NoSolution(FieldError):
    """The system has no unique solution: its matrix is singular or not square."""


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_modulus(p: int) -> None:
    if not isinstance(p, int) or not 2 <= p <= MAX_MODULUS:
        raise FieldError(f"modulus must be an integer in [2, {MAX_MODULUS}], got {p}")
    if not is_prime(p):
        raise FieldError(f"modulus {p} is not prime")


def as_field(a, p: int) -> np.ndarray:
    """Return ``a`` as an int64 array with entries reduced mod p."""
    return np.asarray(a, dtype=np.int64) % p


def _as_matrix(a, p: int) -> np.ndarray:
    """``as_field(a, p)``, refused with a :class:`FieldError` unless 2-D."""
    m = as_field(a, p)
    if m.ndim != 2:
        raise FieldError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce the int64 array ``a`` into [0, p) in place and return it.

    Floor division gives the same residues as ``%``, negative entries
    included, and numpy's int64 floor division by a scalar is faster than
    its ``%``.
    """
    a -= a // p * p
    return a


def mat_mul(a, b, p: int) -> np.ndarray:
    """Exact matrix product ``a @ b`` over GF(p)."""
    return _mat_mul_reduced(as_field(a, p), as_field(b, p), p)


def _mat_mul_reduced(a: np.ndarray, b: np.ndarray, p: int, add: np.ndarray | None = None) -> np.ndarray:
    """``mat_mul`` of int64 arrays whose entries are already in [0, p).

    Skips the copy and reduction ``mat_mul`` makes of each operand.  The
    accumulation is exact only for reduced entries, so callers pass only
    arrays they built in [0, p) themselves.  Stacks of matrices multiply
    slice by slice, as with ``@``.  Given ``add``, an array of the
    product's shape reduced into [0, p), the reduced ``add + a @ b`` is
    written into ``add`` and returned.
    """
    axis = 0 if b.ndim == 1 else b.ndim - 2  # the contracted axis of b
    if not a.ndim or not b.ndim or a.shape[-1] != b.shape[axis]:
        raise FieldError(f"shape mismatch for product: {a.shape} @ {b.shape}")
    inner = a.shape[-1]
    # Float64 holds every integer up to 2**53 exactly: each sum of products,
    # the addend if any, and the multiple of p the reduction subtracts from
    # it, must fit.
    headroom = 0 if add is None else p - 1
    if (
        a.ndim == b.ndim == 2
        and inner * (p - 1) ** 2 + headroom + p <= 2**53
        and a.shape[0] * inner * b.shape[1] >= _FLOAT_MIN
    ):
        return _float_product(a, b, p, add)
    # Number of addends whose partial sum is guaranteed to fit in int64.
    step = max(1, (2**63 - 1) // max(1, (p - 1) ** 2))
    if inner <= step:
        product = _reduce(a @ b, p)
    else:
        product = 0
        for i in range(0, inner, step):
            rows = (slice(None),) * axis + (slice(i, i + step),)
            product = _reduce(product + a[..., i : i + step] @ b[rows], p)
    if add is None:
        return product
    add += product
    return _reduce(add, p)


def _float_product(a: np.ndarray, b: np.ndarray, p: int, add: np.ndarray | None = None) -> np.ndarray:
    """The reduced 2-D product ``a @ b`` through float64 BLAS, exact.

    Every sum of products stays below 2**53, so BLAS computes it exactly
    in any summation order.  ``floor(c * (1/p))`` is then within one of
    ``c // p``, so ``c`` less that multiple of p lies in [-p, 2p) and one
    correction each way reduces it.  The product goes to BLAS in blocks
    of at most ``_BLAS_CALL`` multiply-adds: columns of ``b`` first when
    one row of the result would exceed it, then rows of ``a``.

    Given ``add``, an int64 array of the result's shape reduced into
    [0, p), each block adds it before the one reduction, and the reduced
    ``add + a @ b`` is written into ``add`` and returned.  The sum gains
    up to p - 1, so ``_mat_mul_reduced`` sends it here only while
    inner * (p - 1)**2 + (p - 1) + p <= 2**53.
    """
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.empty((rows, cols), dtype=np.int64) if add is None else add
    fa = a.astype(np.float64)
    fb = b.astype(np.float64)
    inv = 1.0 / p
    width = max(1, min(cols, _BLAS_CALL // max(1, inner)))
    height = max(1, _BLAS_CALL // max(1, inner * width))
    for j in range(0, cols, width):
        for i in range(0, rows, height):
            c = fa[i : i + height] @ fb[:, j : j + width]
            block = out[i : i + height, j : j + width]
            if add is not None:
                c += block
            q = c * inv
            np.floor(q, out=q)
            q *= p
            c -= q
            np.add(c, p, out=c, where=c < 0)
            np.subtract(c, p, out=c, where=c >= p)
            block[...] = c
    return out


class Panel(NamedTuple):
    """The row operations of one elimination panel, as ``factor`` keeps them.

    Rows ``row`` onward were put in ``order``; then the panel's k pivot
    rows became ``combos[:k] @ top_rows`` and every other row gained
    ``combos[k:] @ top_rows``, where ``top_rows`` are the first k rows
    in that order as they stood before the panel.  ``top`` is their part
    right of the panel.
    """

    row: int
    order: np.ndarray
    combos: np.ndarray
    top: np.ndarray


def _eliminate(
    m: np.ndarray, p: int, pivot_cols: int, reduced: bool, panels: list[Panel] | None = None
) -> list[int]:
    """Gaussian elimination of ``m`` in place over GF(p); returns the pivot columns.

    Pivots are searched in the first ``pivot_cols`` columns: the pivot
    of a column is the first nonzero entry at or below the current row,
    swapped up and scaled to 1.  With ``reduced`` each pivot clears its
    column in every other row, leaving the reduced row-echelon form;
    otherwise it clears the rows below it, which is all a rank needs,
    and the pivot list is the only result: the rows of ``m`` are then
    left part-updated.  A rank-mode pivot also clears its panel's pivot
    rows above it: that changes no pivot, no swap and no row below, and
    whole rows of the transposed copy update no slower than their tails.
    Given a ``panels`` list, a rank-mode elimination appends each panel's
    row operations to it.

    The pivot columns are taken in panels of ``_PANEL`` columns, and
    each panel is eliminated on a copy of its rows from the current one
    down, held transposed: one contiguous row of the copy per column, so
    a pivot's rank-1 update runs along rows - r entries rather than
    along at most 2 * _PANEL.  Columns right of the panel that are no
    wider than it ride along in the copy.  Wider ones do not: the copy
    instead records every row as a combination of the panel's pivot rows
    (a kept panel records them either way), so one pivot touches
    rows x 2 * _PANEL entries, and the rest of the matrix then takes one
    exact product per panel.  Each swap of the pivot search swaps the
    two rows of ``m`` right of the copy as well, so those columns stand
    in the panel's order when it ends.  The rows below then gain their
    recorded combination of the pivot rows in place, through the ``add``
    of ``_mat_mul_reduced``: while width * (p - 1)**2 + (p - 1) + p <=
    2**53 the sum is formed in float64 inside the BLAS blocks and
    reduced once; otherwise the reduced int64 product is added and
    reduced again.  In reduced mode the pivot rows are
    rebuilt from their combinations, and the rows above are cleared with
    the new pivot rows.  The pivot decisions and row operations are
    those of the plain column-by-column loop, so the output equals it
    entry for entry, rows beyond the rank included.

    Reductions inside the copy are delayed.  A pivot reads its column
    reduced, for the pivot search and the multiples of the pivot row,
    and reduces the pivot row before scaling it; the other rows take
    its update unreduced, each entry losing less than (p - 1)**2.  The
    whole copy is reduced at the end of the panel, and also after every
    ``delay`` pivots when int64 headroom allows fewer pivots than the
    panel is wide: width * (p - 1)**2 + p < 2**63 holds up to about
    p = 2**29 at the full width, and ``delay`` falls to one near
    ``MAX_MODULUS``.
    """
    rows, cols = m.shape
    # Pivots between reductions of the work copy: each lowers an entry
    # by less than (p - 1)**2, and the reduction needs p more headroom.
    delay = (2**63 - p) // (p - 1) ** 2
    pivots: list[int] = []
    r = 0
    for c0 in range(0, pivot_cols, _PANEL):
        if r == rows:
            break
        c1 = min(c0 + _PANEL, pivot_cols)
        width = c1 - c0
        # Trailing columns no wider than the panel ride along in the copy.
        # Wider ones wait for the per-panel products.  The copy is held
        # transposed: work[j, i] is entry j of row r + i as the panel
        # reorders them.  Unless the trailing columns ride along and no
        # panel is kept, each row gains an entry per pivot: entry span + j
        # holds its coefficient on the panel's j-th pivot row as read
        # before the panel, the 1 that pivot row starts with included.  A
        # row that is not a pivot row also keeps itself with coefficient 1.
        carry = cols - c1 <= width
        span = cols - c0 if carry else width
        with_combos = panels is not None or not carry
        work = np.zeros((span + width if with_combos else span, rows - r), dtype=np.int64)
        work[:span] = m[r:, c0 : c0 + span].T
        order = np.arange(rows - r)
        k = 0
        for c in range(width):
            if r + k == rows:
                break
            # Entry c of each row, reduced, is the multiple of the pivot row
            # that the row loses.
            factors = work[c] % p
            nz = factors[k:].nonzero()[0]
            if nz.size == 0:
                continue
            pr = k + int(nz[0])
            if pr != k:
                work[:, [k, pr]] = work[:, [pr, k]]
                order[[k, pr]] = order[[pr, k]]
                factors[[k, pr]] = factors[[pr, k]]
                # The columns right of the copy keep the panel's order in m.
                m[[r + k, r + pr], c0 + span :] = m[[r + pr, r + k], c0 + span :]
            # The combination entries of pivots still to come are zero.
            end = span + k + 1 if with_combos else span
            if with_combos:
                work[span + k, k] = 1
            pivot_row = work[c:end, k] % p * pow(int(factors[k]), -1, p) % p
            work[c:end, k] = pivot_row
            factors[k] = 0
            work[c:end] -= np.multiply.outer(pivot_row, factors)
            pivots.append(c0 + c)
            k += 1
            if k % delay == 0:
                _reduce(work, p)
        if k % delay:
            _reduce(work, p)
        if k == 0:
            continue
        combos = work[span : span + k].T
        if carry:
            if panels is not None:
                panels.append(Panel(r, order, combos.copy(), m[r:, c1:][order[:k]]))
            m[r:, c0:] = work[:span].T
        else:
            # The trailing rows, already in the panel's order, add their
            # combination of the pivot rows in place.
            top = m[r : r + k, c1:]
            if panels is not None:
                panels.append(Panel(r, order, combos.copy(), top.copy()))
            _mat_mul_reduced(combos[k:], top, p, add=m[r + k :, c1:])
            if reduced:
                m[r:, c0:c1] = work[:width].T
                m[r : r + k, c1:] = _mat_mul_reduced(combos[:k], top, p)
        if reduced and r:
            pivot_entries = m[:r, pivots[-k:]]
            m[:r, c0:] = _reduce(m[:r, c0:] - _mat_mul_reduced(pivot_entries, m[r : r + k, c0:], p), p)
        r += k
    return pivots


def row_reduce(a, p: int, pivot_cols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of ``a`` over GF(p).

    Pivots are searched only in the first ``pivot_cols`` columns (all
    columns by default), which lets callers reduce augmented systems.
    Returns the reduced matrix and the list of pivot column indices.
    """
    m = _as_matrix(a, p)
    pivots = _eliminate(m, p, m.shape[1] if pivot_cols is None else pivot_cols, reduced=True)
    return m, pivots


def mat_rank(a, p: int) -> int:
    """Rank of ``a`` over GF(p) (forward elimination only)."""
    m = _as_matrix(a, p)
    if m.size == 0:
        return 0
    return len(_eliminate(m, p, m.shape[1], reduced=False))


@dataclass(frozen=True, eq=False)
class Factored:
    """A matrix over GF(p) with the row operations that tested its rank.

    ``solve`` applies them to a right-hand side, panel by panel, in place
    of an inverse: forward, each panel's ``combos`` times its pivot rows;
    back, since a panel's pivot block is the identity, its unknowns are
    the forward result less ``combos[:k] @ (top @ x)`` over the unknowns
    right of the panel.
    """

    matrix: np.ndarray
    p: int
    rank: int
    panels: tuple[Panel, ...]

    def solve(self, b) -> np.ndarray:
        """Solve ``matrix @ x = b`` for a square invertible matrix (else NoSolution).

        ``b`` may be a vector or a matrix of stacked right-hand sides.
        """
        n, cols = self.matrix.shape
        if n != cols:
            raise NoSolution(f"solve needs a square matrix, got shape {self.matrix.shape}")
        if self.rank < n:
            raise NoSolution("matrix is singular")
        p = self.p
        x = as_field(b, p)
        if x.ndim not in (1, 2):
            raise FieldError(f"expected a vector or matrix right-hand side, got shape {x.shape}")
        if x.shape[0] != n:
            raise FieldError(f"shape mismatch for solve: {self.matrix.shape} vs {x.shape}")
        for r, order, combos, _ in self.panels:
            rows = x[r:][order]
            k = combos.shape[1]
            x[r:] = _mat_mul_reduced(combos, rows[:k], p)
            x[r + k :] += rows[k:]
            _reduce(x[r + k :], p)
        for r, _, combos, top in reversed(self.panels):
            k = combos.shape[1]
            if top.size:
                done = _mat_mul_reduced(top, x[r + k :], p)
                x[r : r + k] -= _mat_mul_reduced(combos[:k], done, p)
                _reduce(x[r : r + k], p)
        return x


def factor(a, p: int) -> Factored:
    """``a`` over GF(p) with its rank and the row operations that found it."""
    return _factor_reduced(_as_matrix(a, p), p)


def _factor_reduced(matrix: np.ndarray, p: int) -> Factored:
    """``factor`` of an int64 matrix whose entries are already in [0, p), kept as given."""
    panels: list[Panel] = []
    rank = len(_eliminate(matrix.copy(), p, matrix.shape[1], reduced=False, panels=panels))
    return Factored(matrix, p, rank, tuple(panels))


def mix64(z: int) -> int:
    """SplitMix64 finalizer: the avalanche permutation on 64-bit words."""
    z &= _U64
    z ^= z >> 30
    z = z * _MIX1 & _U64
    z ^= z >> 27
    z = z * _MIX2 & _U64
    z ^= z >> 31
    return z


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic sub-seed for a named stream of a master seed.

    Streams used by this package: 1 = plan, 2 = database, 3 = adversary;
    per-server adversary streams hash the server index in as well.
    """
    return mix64((seed & _U64) + mix64(stream))


class FieldRng:
    """Counter-based deterministic generator of uniform field elements.

    Output i of the stream is ``mix64(seed + (i+1) * GOLDEN)``; 64-bit
    draws at or above the largest multiple of p are rejected, the rest
    reduced mod p.  The draw sequence depends only on (seed, p) and the
    sequence of method calls, never on platform or numpy version.
    """

    def __init__(self, seed: int, p: int = DEFAULT_MODULUS):
        check_modulus(p)
        self.p = p
        self.seed = seed & _U64
        self.counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words of the stream."""
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        z = np.uint64(self.seed) + idx * np.uint64(_GOLDEN)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def _below_many(self, n: int, k: int) -> np.ndarray:
        """n uniform integers in [0, k): the draws of n calls to ``below(k)``.

        Each batch asks for only as many words as values are still
        missing, so no word is drawn that the one-at-a-time loop would
        not draw, and the counter ends where that loop leaves it.
        """
        if n < 0:
            raise FieldError(f"cannot draw a negative number of values, got {n}")
        accept = (1 << 64) - ((1 << 64) % k)
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            r = self.raw(n - filled)
            if accept < 1 << 64:
                r = r[r < np.uint64(accept)]
            out[filled : filled + len(r)] = (r % np.uint64(k)).astype(np.int64)
            filled += len(r)
        return out

    def elements(self, n: int) -> np.ndarray:
        """n uniform field elements as an int64 array."""
        return self._below_many(n, self.p)

    def element(self) -> int:
        return int(self.elements(1)[0])

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        if rows < 0 or cols < 0:
            raise FieldError(f"cannot draw a matrix of shape ({rows}, {cols})")
        return self.elements(rows * cols).reshape(rows, cols)

    def below(self, k: int) -> int:
        """Uniform integer in [0, k), by rejection on the raw stream."""
        if k <= 0:
            raise FieldError(f"below() needs a positive bound, got {k}")
        accept = (1 << 64) - ((1 << 64) % k)
        while True:
            self.counter += 1
            z = mix64(self.seed + self.counter * _GOLDEN)
            if z < accept:
                return z % k

    def nonzero(self, n: int) -> np.ndarray:
        """n uniform nonzero field elements."""
        return self._below_many(n, self.p - 1) + 1

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n)."""
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            order[i], order[j] = order[j], order[i]
        return order


def sample_invertible(size: int, p: int, rng: "FieldRng | int") -> Factored:
    """Uniform invertible size x size matrix over GF(p), factored.

    Sampled by rejection: draw a uniform matrix, keep it iff full rank.
    The kept draw comes with the row operations of its rank test, so a
    system on it solves with no further elimination.  Deterministic in
    (size, p, seed); an int is accepted in place of a prepared generator.
    """
    if size < 1:
        raise FieldError(f"matrix size must be positive, got {size}")
    if isinstance(rng, int):
        rng = FieldRng(rng, p)
    if rng.p != p:
        raise FieldError(f"generator modulus {rng.p} does not match {p}")
    while True:
        drawn = _factor_reduced(rng.matrix(size, size), p)  # draws are in [0, p) already
        if drawn.rank == size:
            return drawn
