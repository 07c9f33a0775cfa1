"""Reed-Solomon realizations of the MDS codes the retrieval schemes use.

A code is held by the transpose of its generator matrix: the n x k
Vandermonde matrix on distinct nonzero evaluation points (1..n for
freshly built codes), so any k rows are invertible and every code is
MDS.  Codeword "symbols" may themselves be row vectors: all routines
accept an (n,) vector or an (n, w) matrix of w words, and every
result equals decoding the w columns independently.

Decoding surfaces:

- :func:`recover_message` is the one message decoder.  From any >= k
  known positions it either solves the message and verifies the
  surplus positions (erasures only), or, with ``correct=True``,
  punctures the code to the known positions and corrects up to
  floor((|known| - k) / 2) wrong ones.  Errors are located once, by
  rational interpolation (Gao) on column 0; every other column is then
  erasure-decoded on the positions column 0 got right, and only a
  column that this contradicts gets its own Gao run.  Faults that hit
  the same positions in every column, as a lying server's do, cost
  one Gao run per call (interleaved decoding in the spirit of
  Bleichenbacher, Kiayias and Yung, ICALP 2003).
- :func:`erasure_complete` and :func:`error_correct` re-encode its
  message into the full codeword.
- :func:`puncture` restricts a code to a subset of positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .gf import _mat_mul_reduced, as_field, mat_inv


class CodingError(Exception):
    pass


class InvalidShape(CodingError):
    pass


class TooFewKnown(CodingError):
    pass


class TooShort(CodingError):
    pass


class NotACodeword(CodingError):
    pass


class DecodingFailure(CodingError):
    pass


@dataclass(frozen=True)
class RsCode:
    """An (n, k) Reed-Solomon code over GF(p) on distinct eval points."""

    n: int
    k: int
    p: int
    eval_points: np.ndarray  # (n,) distinct, nonzero
    gen_t: np.ndarray  # (n, k), row i = powers of eval_points[i]

    @property
    def max_errors(self) -> int:
        """Bounded-distance radius floor((n - k) / 2)."""
        return (self.n - self.k) // 2

    @property
    def min_distance(self) -> int:
        return self.n - self.k + 1


def _vandermonde(points: np.ndarray, width: int, p: int) -> np.ndarray:
    """Matrix of powers points[i]**j for j < width, over GF(p)."""
    out = np.empty((len(points), width), dtype=np.int64)
    if width == 0:
        return out
    out[:, 0] = 1
    for j in range(1, width):
        out[:, j] = out[:, j - 1] * points % p
    return out


def rs_transposed_generator(n: int, k: int, p: int) -> RsCode:
    """The canonical (n, k) code on evaluation points 1..n."""
    if not 1 <= k <= n:
        raise InvalidShape(f"need 1 <= k <= n, got k={k}, n={n}")
    if n >= p:
        raise InvalidShape(f"code length {n} needs a field larger than {p}")
    points = np.arange(1, n + 1, dtype=np.int64)
    return RsCode(n=n, k=k, p=p, eval_points=points, gen_t=_vandermonde(points, k, p))


def encode(code: RsCode, message) -> np.ndarray:
    """Codeword gen_t @ message; message is (k,) or (k, w)."""
    message = as_field(message, code.p)
    if message.shape[0] != code.k:
        raise InvalidShape(f"message has {message.shape[0]} rows, expected {code.k}")
    return _mat_mul_reduced(code.gen_t, message, code.p)


def puncture(code: RsCode, keep) -> RsCode:
    """Restriction of the code to the kept positions (still MDS)."""
    positions = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= code.n for i in positions):
        raise InvalidShape(f"positions out of range [0, {code.n})")
    if len(positions) < code.k:
        raise TooShort(f"{len(positions)} positions kept, need at least k={code.k}")
    # Rows of a Vandermonde matrix depend only on their own point.
    return RsCode(n=len(positions), k=code.k, p=code.p,
                  eval_points=code.eval_points[positions], gen_t=code.gen_t[positions])


def _as_columns(code: RsCode, values) -> tuple[np.ndarray, bool]:
    v = as_field(values, code.p)
    if v.ndim == 1:
        return v[:, None], True
    if v.ndim != 2:
        raise InvalidShape(f"expected a vector or matrix of symbols, got ndim={v.ndim}")
    return v, False


_INV_CACHE: dict[tuple, np.ndarray] = {}


def _cached_inv(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix, memoized by content (bounded cache)."""
    key = (p, a.shape[0], a.tobytes())
    hit = _INV_CACHE.get(key)
    if hit is None:
        hit = mat_inv(a, p)
        if len(_INV_CACHE) >= 256:
            _INV_CACHE.pop(next(iter(_INV_CACHE)))
        _INV_CACHE[key] = hit
    return hit


def _solve_known(code: RsCode, positions, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Messages from the first k of ``positions``, and the columns the rest contradict.

    ``rows`` holds the reduced values at ``positions``, one column per
    word.  Any k rows of the transposed generator are invertible, so the
    first k positions fix every column's message with one product and
    the surplus positions check it with another.
    """
    p, k = code.p, code.k
    head, tail = positions[:k], positions[k:]
    message = _mat_mul_reduced(_cached_inv(code.gen_t[head], p), rows[:k], p)
    wrong = np.any(_mat_mul_reduced(code.gen_t[tail], message, p) != rows[k:], axis=0)
    return message, wrong


def recover_message(
    code: RsCode, known: Mapping[int, object], correct: bool = False
) -> np.ndarray:
    """Message of the codeword that >= k known positions determine.

    Positions not in ``known`` are erasures.  Without ``correct``, any k
    rows of the transposed generator are invertible, so the first k
    known positions determine the message and the remaining ones are
    verified against it (NotACodeword on a mismatch).  With ``correct``,
    the code is punctured to the known positions and each column is
    decoded to the unique codeword within floor((|known| - k) / 2)
    errors (DecodingFailure when there is none); errors are located on
    column 0 and the other columns erasure-decoded around them, with the
    same result as decoding every column on its own.  Raises TooFewKnown
    below k positions.
    """
    positions = sorted(int(i) for i in known)
    if any(i < 0 or i >= code.n for i in positions):
        raise InvalidShape(f"positions out of range [0, {code.n})")
    if len(positions) != len(set(positions)):
        raise InvalidShape("duplicate positions")
    if len(positions) < code.k:
        raise TooFewKnown(f"{len(positions)} known positions, need at least k={code.k}")
    rows = as_field([known[i] for i in positions], code.p)
    vector = rows.ndim == 1
    if vector:
        rows = rows[:, None]
    if correct:
        message = _correct_columns(puncture(code, positions), rows)
    else:
        message, wrong = _solve_known(code, positions, rows)
        if wrong.any():
            raise NotACodeword("known positions fit no codeword")
    return message[:, 0] if vector else message


def erasure_complete(code: RsCode, known: Mapping[int, object]) -> np.ndarray:
    """The unique codeword consistent with the known positions."""
    return encode(code, recover_message(code, known))


def message_from_codeword(code: RsCode, word) -> np.ndarray:
    """Inverse of :func:`encode`; verifies the input is a codeword."""
    cols, vector = _as_columns(code, word)
    if cols.shape[0] != code.n:
        raise InvalidShape(f"word has {cols.shape[0]} rows, expected {code.n}")
    message = recover_message(code, {i: cols[i] for i in range(code.n)})
    return message[:, 0] if vector else message


# --- polynomial helpers (coefficients low degree first, trimmed) ------------


def _poly_trim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    return a[: int(nz[-1]) + 1] if nz.size else a[:0]


def _poly_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    if min(len(a), len(b)) * (p - 1) ** 2 < 2**63:
        return _poly_trim(np.convolve(a, b) % p)
    exact = np.convolve(a.astype(object), b.astype(object)) % p
    return _poly_trim(exact.astype(np.int64))


def _poly_sub(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    width = max(len(a), len(b))
    out = np.zeros(width, dtype=np.int64)
    out[: len(a)] = a
    out[: len(b)] = (out[: len(b)] - b) % p
    return _poly_trim(out % p)


def _poly_divmod(num: np.ndarray, den: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder over GF(p); den need not be monic."""
    if len(den) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    num = num.copy() % p
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return np.zeros(0, dtype=np.int64), _poly_trim(num)
    lead_inv = pow(int(den[-1]), -1, p)
    quot = np.zeros(len(num) - dd, dtype=np.int64)
    for i in range(len(num) - 1, dd - 1, -1):
        c = int(num[i]) % p
        if c:
            c = c * lead_inv % p
            quot[i - dd] = c
            num[i - dd : i + 1] = (num[i - dd : i + 1] - c * den) % p
    return quot, _poly_trim(num[:dd])


_INTERP_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _interp_setup(p: int, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cached (g0, basis) for interpolation through the given points.

    g0 = prod(x - x_i); basis column i holds the coefficients of the
    Lagrange polynomial L_i, so an interpolant is one matrix-vector
    product basis @ y.
    """
    key = (p, points.tobytes())
    hit = _INTERP_CACHE.get(key)
    if hit is not None:
        return hit
    n = len(points)
    g0 = np.array([1], dtype=np.int64)
    for x in points:
        g0 = _poly_mul(g0, np.array([-int(x) % p, 1], dtype=np.int64), p)
    g0 = np.concatenate([g0, np.zeros(n + 1 - len(g0), dtype=np.int64)])
    # Synthetic division g0 / (x - x_i) for all i at once (Horner, high to low).
    quots = np.zeros((n, n), dtype=np.int64)
    quots[n - 1] = g0[n]
    for j in range(n - 1, 0, -1):
        quots[j - 1] = (g0[j] + points * quots[j]) % p
    # Evaluate each quotient at its own point, again by Horner.
    vals = quots[n - 1].copy()
    for j in range(n - 2, -1, -1):
        vals = (vals * points + quots[j]) % p
    scale = np.array([pow(int(v), -1, p) for v in vals], dtype=np.int64)
    basis = quots * scale % p
    if len(_INTERP_CACHE) >= 16:
        _INTERP_CACHE.pop(next(iter(_INTERP_CACHE)))
    _INTERP_CACHE[key] = (g0, basis)
    return g0, basis


def _gao_decode_column(code: RsCode, received: np.ndarray) -> np.ndarray | None:
    """Message of the nearest codeword within ``code.max_errors``, or None.

    Partial extended Euclid on (prod(x - x_i), interpolant of the
    received word) stops at the first remainder of degree below
    (n + k) / 2; the message polynomial is that remainder divided by its
    Bezout cofactor.  Equivalent to the Berlekamp-Welch linear system
    (the cofactor is the error locator) but quadratic instead of cubic.
    """
    p, n, k, radius = code.p, code.n, code.k, code.max_errors
    if radius == 0:
        message, wrong = _solve_known(code, range(n), received[:, None])
        return None if wrong[0] else message[:, 0]
    g0, basis = _interp_setup(p, code.eval_points)
    g1 = _poly_trim(_mat_mul_reduced(basis, received, p))
    r_prev, r = g0, g1
    v_prev, v = np.zeros(0, dtype=np.int64), np.array([1], dtype=np.int64)
    while len(r) and 2 * (len(r) - 1) >= n + k:
        q, rem = _poly_divmod(r_prev, r, p)
        v_prev, v = v, _poly_sub(v_prev, _poly_mul(q, v, p), p)
        r_prev, r = r, rem
    if len(v) == 0:
        return None
    f, rem = _poly_divmod(r, v, p)
    if len(rem) or len(f) > k:
        return None
    message = np.zeros(k, dtype=np.int64)
    message[: len(f)] = f
    word = _mat_mul_reduced(code.gen_t, message, p)
    if int(np.count_nonzero(word != received)) > radius:
        return None
    return message


def _series_inverse(mu: np.ndarray, k: int, p: int) -> np.ndarray:
    """First k coefficients of the power series 1 / mu, for mu[0] == 1.

    Newton's iteration nu <- nu * (2 - mu * nu) doubles the number of
    correct coefficients per step.
    """

    def head(a: np.ndarray, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=np.int64)
        out[: min(len(a), length)] = a[:length]
        return out

    nu = np.ones(1, dtype=np.int64)
    while len(nu) < k:
        prec = min(2 * len(nu), k)
        step = -head(_poly_mul(head(mu, prec), nu, p), prec) % p
        step[0] = (step[0] + 2) % p
        nu = head(_poly_mul(nu, step, p), prec)
    return nu[:k]


def _solve_around(code: RsCode, rows: np.ndarray, erased: np.ndarray) -> np.ndarray:
    """Messages of the columns of ``rows`` read on the positions outside ``erased``.

    With Lambda the monic polynomial whose roots are the erased points,
    a column that agrees with the codeword of f outside them has
    Lambda(x_i) * y_i = (Lambda * f)(x_i) at every point, and Lambda * f
    has degree below n (len(erased) <= n - k).  So one product with the
    interpolation basis Gao already uses gives the coefficients of Lambda
    and of every Lambda * f at once, and f is Lambda * f divided by
    Lambda: an upper-triangular Toeplitz system, solved by the power
    series inverse of reversed Lambda.  Columns that agree with no
    codeword outside ``erased`` come back with some message; the caller
    checks.
    """
    p, k, points = code.p, code.k, code.eval_points
    e = len(erased)
    locator_values = np.ones(code.n, dtype=np.int64)
    for i in erased:
        locator_values = locator_values * (points - points[i]) % p
    _, basis = _interp_setup(p, points)
    weighted = np.column_stack([locator_values, locator_values[:, None] * rows % p])
    coeffs = _mat_mul_reduced(basis, weighted, p)
    # Coefficient e + i of Lambda * f is f_i plus sum_s Lambda_{e-s} f_{i+s}.
    nu = _series_inverse(coeffs[e::-1, 0], k, p)
    offset = np.arange(k)[None, :] - np.arange(k)[:, None]
    solve = np.where(offset >= 0, nu[np.maximum(offset, 0)], 0)
    return _mat_mul_reduced(solve, coeffs[e : e + k, 1:], p)


def _correct_columns(code: RsCode, rows: np.ndarray) -> np.ndarray:
    """Message of every column of ``rows`` within ``code.max_errors`` errors.

    Gao decodes column 0, and its error support E is where its codeword
    and the column differ.  Every column is then erasure-decoded on the
    positions outside E.  A column that matches its solution on all of
    them differs from that codeword only inside E, and |E| <= max_errors,
    so the solution is the unique codeword within the radius: the one
    Gao would return.  Columns that do not match fall back to their own
    Gao run in column order, so the first column Gao refuses is the one
    that decoding every column in turn would name.
    """

    def gao(j: int) -> np.ndarray:
        column = _gao_decode_column(code, rows[:, j])
        if column is None:
            raise DecodingFailure(f"no codeword within {code.max_errors} errors of column {j}")
        return column

    if rows.shape[1] == 0:
        return np.zeros((code.k, 0), dtype=np.int64)
    located = _mat_mul_reduced(code.gen_t, gao(0), code.p) != rows[:, 0]
    message = _solve_around(code, rows, np.flatnonzero(located))
    mismatch = _mat_mul_reduced(code.gen_t, message, code.p) != rows
    for j in np.flatnonzero(np.any(mismatch[~located], axis=0)):
        message[:, j] = gao(int(j))
    return message


def error_correct(code: RsCode, received) -> np.ndarray:
    """Unique codeword within floor((n - k) / 2) of ``received``.

    Each column of a matrix input comes back as decoding it on its own
    would return it (errors in a row vector may hit any subset of its
    coordinates).  The errors are located on column 0; a column whose
    errors lie elsewhere costs one more rational interpolation.  Raises
    DecodingFailure when some column has no codeword within the radius.
    """
    cols, vector = _as_columns(code, received)
    if cols.shape[0] != code.n:
        raise InvalidShape(f"received word has {cols.shape[0]} rows, expected {code.n}")
    word = encode(code, recover_message(code, dict(enumerate(cols)), correct=True))
    return word[:, 0] if vector else word
