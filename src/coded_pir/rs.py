"""Reed-Solomon realizations of the MDS codes the retrieval schemes use.

A code is held by the transpose of its generator matrix: the n x k
Vandermonde matrix on distinct nonzero evaluation points (1..n for
freshly built codes), so any k rows are invertible and every code is
MDS.  Codeword "symbols" may themselves be row vectors: all routines
accept an (n,) vector or an (n, w) matrix of w words, and every
result equals decoding the w columns independently.

Decoding surfaces:

- :func:`recover_message` is the one message decoder.  From any >= k
  known positions it solves the message around the erased ones with
  the code's own interpolation basis, and either verifies the surplus
  positions (erasures only) or, with ``correct=True``, corrects up to
  floor((|known| - k) / 2) wrong ones.  Errors are located once, on
  column 0: Berlekamp-Massey (Massey 1969) on Forney's erasure-modified
  syndromes (Forney 1965) gives the error locator, whose roots among
  the known positions are the error support.  Every column is then
  erasure-decoded around that support, and only a column that this
  contradicts gets its own locator.  Faults that hit the same
  positions in every column, as a lying server's do, cost one locator
  per call (interleaved decoding in the spirit of Bleichenbacher,
  Kiayias and Yung, ICALP 2003).
- :func:`erasure_complete` and :func:`error_correct` re-encode its
  message into the full codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import isqrt
from operator import mul
from typing import Mapping

import numpy as np

from .gf import _mat_mul_reduced, as_field


class CodingError(Exception):
    pass


class InvalidShape(CodingError):
    pass


class TooFewKnown(CodingError):
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

    @cached_property
    def interpolation(self) -> tuple[np.ndarray, np.ndarray]:
        """(g0, basis) of the evaluation points, built once per code on first use."""
        return _interp_setup(self.p, self.eval_points)

    @cached_property
    def powers(self) -> np.ndarray:
        """Powers eval_points[j] ** i, i <= n - k: every syndrome row and evaluation slices it."""
        return _vandermonde(self.eval_points, self.n - self.k + 1, self.p)


def _vandermonde(points: np.ndarray, width: int, p: int) -> np.ndarray:
    """Matrix of powers points[i]**j for j < width, over GF(p), by doubling: columns
    [m, 2m) are columns [0, m) times points**m, each product of two residues below 2**63."""
    out = np.empty((len(points), width), dtype=np.int64)
    out[:, :1] = 1
    m, power = 1, points
    while m < width:
        out[:, m : 2 * m] = out[:, : min(m, width - m)] * power[:, None] % p
        m, power = 2 * m, power * power % p
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


def _as_columns(code: RsCode, values) -> tuple[np.ndarray, bool]:
    v = as_field(values, code.p)
    if v.ndim == 1:
        return v[:, None], True
    if v.ndim != 2:
        raise InvalidShape(f"expected a vector or matrix of symbols, got ndim={v.ndim}")
    return v, False


def recover_message(code: RsCode, known: Mapping[int, object], correct: bool = False) -> np.ndarray:
    """Message of the codeword that >= k known positions determine.

    Positions not in ``known`` are erasures; the message is solved
    around them with the code's basis, no k x k inverse.  Without
    ``correct``, the known positions must fit one codeword (NotACodeword
    otherwise).  With ``correct``, each column is decoded to the unique
    codeword within floor((|known| - k) / 2) errors among them
    (DecodingFailure when there is none); errors are located on column 0
    and the other columns erasure-decoded around them, with the same
    result as decoding every column on its own.  Raises TooFewKnown
    below k positions.
    """
    positions = sorted(int(i) for i in known)
    if any(i < 0 or i >= code.n for i in positions):
        raise InvalidShape(f"positions out of range [0, {code.n})")
    if len(positions) != len(set(positions)):
        raise InvalidShape("duplicate positions")
    if len(positions) < code.k:
        raise TooFewKnown(f"{len(positions)} known positions, need at least k={code.k}")
    values = as_field([known[i] for i in positions], code.p)
    vector = values.ndim == 1
    rows = np.zeros((code.n, 1 if vector else values.shape[1]), dtype=np.int64)
    rows[positions] = values[:, None] if vector else values
    erased = np.delete(np.arange(code.n), positions)
    if correct:
        message = _correct_columns(code, rows, erased)
    else:
        message, wrong = _solve_around(code, rows, erased)
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


def _vanishing(points: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of the monic prod(x - x_i) over the last axis of ``points``."""
    n = points.shape[-1]
    if points.ndim == 1 and n > 64:  # sqrt(n) chunk products, built side by side
        width = isqrt(n)
        full = n - n % width
        parts = [*_vanishing(points[:full].reshape(-1, width), p), _vanishing(points[full:], p)]
        return reduce(lambda a, b: _poly_mul(a, b, p), parts)
    out = np.zeros(points.shape[:-1] + (n + 1,), dtype=np.int64)
    out[..., 0] = 1
    for m in range(n):
        x = points[..., m, None]
        out[..., 1 : m + 2] = (out[..., : m + 1] - x * out[..., 1 : m + 2]) % p
        out[..., :1] = -x * out[..., :1] % p
    return out


def _interp_setup(p: int, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g0, basis) for interpolation through the points on the last axis.

    g0 = prod(x - x_i); basis column i holds the coefficients of the
    Lagrange polynomial L_i, so an interpolant is one matrix-vector
    product basis @ y, and the basis is the inverse of the points'
    square Vandermonde matrix.  Leading axes hold independent point sets.
    """
    n = points.shape[-1]
    g0 = _vanishing(points, p)
    slope = g0[..., 1:] * np.arange(1, n + 1) % p  # coefficients of g0'
    # Synthetic division g0 / (x - x_i) for all i at once, high to low
    # (Horner), beside g0'(x_i) = prod_{j != i} (x_i - x_j), also by Horner.
    quots = np.empty(points.shape[:-1] + (n, n), dtype=np.int64)
    state = np.empty((2,) + points.shape, dtype=np.int64)
    state[0] = g0[..., n, None]
    state[1] = slope[..., n - 1, None]
    quots[..., n - 1, :] = state[0]
    addend = np.moveaxis(np.stack([g0[..., 1:n], slope[..., : n - 1]]), -1, 0)[..., None]
    for j in range(n - 1, 0, -1):
        state *= points
        state += addend[j - 1]
        state %= p
        quots[..., j - 1, :] = state[0]
    scale = np.array([pow(int(v), -1, p) for v in state[1].ravel()], dtype=np.int64)
    quots *= scale.reshape(state[1].shape)[..., None, :]
    quots %= p
    return g0, quots


def _locator(code: RsCode, erased: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lambda = prod(x - x_i) over the erased points: coefficients, and value at every point."""
    locator = _vanishing(code.eval_points[erased], code.p)
    return locator, _mat_mul_reduced(code.powers[:, : len(locator)], locator, code.p)


def _berlekamp_massey(seq: list[int], p: int) -> list[int]:
    """Connection polynomial of the shortest linear recurrence of ``seq`` over GF(p).

    Massey's shift-register synthesis: C, low degree first, with C[0] == 1
    and len(C) - 1 the recurrence length L, so sum_l C[l] * seq[i - l]
    vanishes for L <= i < len(seq).  In Python ints, since sums of
    products of residues overflow int64 for the largest moduli.
    """
    conn, prev = [1], [1]
    length, gap, last_inv = 0, 1, 1
    rev, end = seq[::-1], len(seq)
    for i in range(end):
        d = sum(map(mul, conn, rev[end - 1 - i : end - i + length])) % p
        if d == 0:
            gap += 1
            continue
        scale = d * last_inv % p
        update = conn + [0] * (gap + len(prev) - len(conn))
        update[gap : gap + len(prev)] = [(c - scale * b) % p for c, b in zip(update[gap:], prev)]
        if 2 * length <= i:
            prev, length, last_inv, gap = conn, i + 1 - length, pow(d, -1, p), 1
        else:
            gap += 1
        conn = update
    return conn


def _error_support(code: RsCode, column: np.ndarray, erased: np.ndarray) -> np.ndarray | None:
    """Mask of the error positions of one column, or None when they cannot be located.

    With u_j = 1 / g0'(x_j), row n - 1 of the code's basis, the syndromes
    sum_j x_j^i u_j y_j (i < n - k) vanish on codewords.  Times the erasure
    locator Lambda they become Forney's modified syndromes, one product:
    T_m = sum_j x_j^m u_j Lambda(x_j) y_j for m < n - k - e.  Within the
    radius, Berlekamp-Massey on T gives the error locator, whose reversal
    vanishes exactly on the error support.  None when the locator is
    longer than the radius or has fewer roots among the known positions.
    """
    p, n, k = code.p, code.n, code.k
    _, values = _locator(code, erased)
    _, basis = code.interpolation
    weighted = basis[n - 1] * values % p * column % p
    syndromes = _mat_mul_reduced(code.powers[:, : n - k - len(erased)].T, weighted, p)
    conn = _berlekamp_massey(syndromes.tolist(), p)
    errors = len(conn) - 1
    if 2 * errors > len(syndromes):
        return None
    reversal = np.array(conn[::-1], dtype=np.int64)  # prod(x - x_j) over the errors
    support = _mat_mul_reduced(code.powers[:, : errors + 1], reversal, p) == 0
    support[erased] = False
    return support if int(np.count_nonzero(support)) == errors else None


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


def _solve_around(
    code: RsCode, rows: np.ndarray, erased: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Messages of the columns of ``rows`` read outside ``erased``, and which fit no codeword.

    With Lambda the erasure locator (degree e), the interpolant P of
    Lambda * y through all n points is Lambda times the interpolant
    through the others, so a column fits a codeword there exactly when
    coefficients e + k .. n - 1 of P vanish, and then P = Lambda * f.
    One product with the code's basis gives them for every column, and
    f is coefficients e .. e + k - 1 of P divided by Lambda: an upper
    triangular Toeplitz system, solved by the power series inverse of
    reversed Lambda.  Unfitting columns come back with some message.
    """
    p, k = code.p, code.k
    e = len(erased)
    locator, values = _locator(code, erased)
    _, basis = code.interpolation
    top = _mat_mul_reduced(basis[e:], values[:, None] * rows % p, p)
    # Coefficient e + i of Lambda * f is f_i plus sum_s Lambda_{e-s} f_{i+s}.
    nu = _series_inverse(locator[::-1], k, p)
    offset = np.arange(k)[None, :] - np.arange(k)[:, None]
    solve = np.where(offset >= 0, nu[np.maximum(offset, 0)], 0)
    return _mat_mul_reduced(solve, top[:k], p), np.any(top[k:] != 0, axis=0)


def _correct_columns(code: RsCode, rows: np.ndarray, erased: np.ndarray) -> np.ndarray:
    """Message of every column of ``rows`` within the radius of the known positions.

    Column 0's error support E is located, and every column is
    erasure-decoded around E and ``erased``.  A column that fits there
    is within |E| <= radius of that codeword, so it is the unique one.
    Each other column that does not fit is located on its own, in
    column order, so the first column refused is the one that decoding
    every column in turn would name.
    """
    radius = (code.n - len(erased) - code.k) // 2

    def refusal(j: int) -> DecodingFailure:
        return DecodingFailure(f"no codeword within {radius} errors of column {j}")

    def locate(j: int) -> np.ndarray:
        support = _error_support(code, rows[:, j], erased)
        if support is None:
            raise refusal(j)
        support[erased] = True
        return np.flatnonzero(support)

    if rows.shape[1] == 0:
        return np.zeros((code.k, 0), dtype=np.int64)
    message, wrong = _solve_around(code, rows, locate(0))
    if wrong[0]:
        raise refusal(0)
    for j in np.flatnonzero(wrong):
        column, unfit = _solve_around(code, rows[:, j : j + 1], locate(int(j)))
        if unfit[0]:
            raise refusal(int(j))
        message[:, j] = column[:, 0]
    return message


def error_correct(code: RsCode, received) -> np.ndarray:
    """Unique codeword within floor((n - k) / 2) of ``received``.

    Each column of a matrix input comes back as decoding it on its own
    would return it (errors in a row vector may hit any subset of its
    coordinates).  The errors are located on column 0; a column whose
    errors lie elsewhere costs one more error locator.  Raises
    DecodingFailure when some column has no codeword within the radius.
    """
    cols, vector = _as_columns(code, received)
    if cols.shape[0] != code.n:
        raise InvalidShape(f"received word has {cols.shape[0]} rows, expected {code.n}")
    word = encode(code, recover_message(code, dict(enumerate(cols)), correct=True))
    return word[:, 0] if vector else word
