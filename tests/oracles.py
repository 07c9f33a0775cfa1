"""Slow, independent reference implementations the tests compare against.

None of these run in the library: each re-derives a result that the
production code computes another way, so a disagreement points at one
of the two.
"""

import base64
import json
from itertools import combinations
from typing import Mapping

import numpy as np

from coded_pir import gf, plans, rs
from coded_pir.storage import ADVERSARY_STREAM, Adversary, ShapeMismatch, Transcript, encode_database


class SingularSystem(Exception):
    """A shared query's responses do not determine it: wrong count or a non-MDS code."""


# --- GF(p) elimination on Python ints -------------------------------------------


def int_row_reduce(a, p, pivot_cols=None):
    """Reduced row-echelon form as lists of Python ints, and the pivot columns."""
    m = [[int(x) % p for x in row] for row in np.asarray(a).tolist()]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    limit = cols if pivot_cols is None else pivot_cols
    pivots = []
    r = 0
    for c in range(limit):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [(x - factor * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def int_rank(a, p):
    return len(int_row_reduce(a, p)[1])


def int_solve(a, b, p):
    """Unique solution of a @ x = b as nested lists, or None."""
    a = np.asarray(a)
    b = np.asarray(b).reshape(a.shape[0], -1)
    cols = a.shape[1]
    reduced, pivots = int_row_reduce(np.hstack([a, b]), p, pivot_cols=cols)
    if len(pivots) < cols or any(any(row[cols:]) for row in reduced[cols:]):
        return None
    return [row[cols:] for row in reduced[:cols]]


def int_factor(a, p, panel):
    """Rank of ``a`` and the row operations of each ``panel`` pivot columns, on Python ints.

    Each panel runs Gauss-Jordan over its columns on the rows from the
    current one down, with the pivot rule of ``int_row_reduce``, while
    every row also tracks itself as a combination of those rows as they
    stood before the panel.  Returns the rank and, per panel that found
    a pivot, ``(row, order, combos, top)`` as lists, in the form of
    ``gf.Panel``: ``order`` is where each row came from, ``combos[i][j]``
    the coefficient of row i on the j-th pivot row, and ``top`` the
    pivot rows right of the panel as they stood before it.
    """
    m = [[int(x) % p for x in row] for row in np.asarray(a).tolist()]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    panels = []
    r = 0
    for c0 in range(0, cols, panel):
        if r == rows:
            break
        c1 = min(c0 + panel, cols)
        before = m[r:]
        block = [row[:] for row in before]
        n = rows - r
        order = list(range(n))
        track = [[int(i == j) for j in range(n)] for i in range(n)]
        k = 0
        for c in range(c0, c1):
            if r + k == rows:
                break
            pr = next((i for i in range(k, n) if block[i][c]), None)
            if pr is None:
                continue
            for lst in (block, track, order):
                lst[k], lst[pr] = lst[pr], lst[k]
            inv = pow(block[k][c], -1, p)
            block[k] = [x * inv % p for x in block[k]]
            track[k] = [x * inv % p for x in track[k]]
            for i in range(n):
                if i != k and block[i][c]:
                    f = block[i][c]
                    block[i] = [(x - f * y) % p for x, y in zip(block[i], block[k])]
                    track[i] = [(x - f * y) % p for x, y in zip(track[i], track[k])]
            k += 1
        if k:
            combos = [[row[order[j]] for j in range(k)] for row in track]
            panels.append((r, order, combos, [before[order[j]][c1:] for j in range(k)]))
        m[r:] = block
        r += k
    return r, panels


# --- Reed-Solomon: Berlekamp-Welch ------------------------------------------------


def solve_any(a, b, p):
    """One solution of a @ x = b (free variables set to 0), or None."""
    rows, cols = a.shape
    reduced, pivots = gf.row_reduce(np.hstack([a, b[:, None]]), p, pivot_cols=cols)
    tail = reduced[len(pivots):]
    if tail.size and np.any(tail[:, cols:]):
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = reduced[r, cols]
    return x


def bw_decode_column(code, received, radius=None):
    """Berlekamp-Welch decoder (one column): nearest codeword, or None.

    Solves the linear system Q(x_i) = y_i * E(x_i) for Q of degree below
    k + radius and monic E of degree radius.  Cubic in n.
    """
    p = code.p
    k = code.k
    received = gf.as_field(received, p)
    radius = code.max_errors if radius is None else radius
    if radius == 0:
        message = solve_any(code.gen_t, received, p)
        return None if message is None else gf.mat_mul(code.gen_t, message, p)
    powers = rs._vandermonde(code.eval_points, k + radius, p)
    lhs = np.hstack([powers, (-received[:, None] * powers[:, :radius]) % p])
    rhs = received * powers[:, radius] % p
    sol = solve_any(lhs, rhs, p)
    if sol is None:
        return None
    q_poly = rs._poly_trim(sol[: k + radius])
    e_poly = np.concatenate([sol[k + radius :], [1]])
    quot, rem = _poly_divmod(q_poly, e_poly, p)
    if len(rem):
        return None
    message = np.zeros(k, dtype=np.int64)
    message[: min(k, len(quot))] = quot[:k]
    word = gf.mat_mul(code.gen_t, message, p)
    if int(np.count_nonzero((word - received) % p)) > radius:
        return None
    return word


# --- Reed-Solomon: Gao's partial Euclid --------------------------------------------


def _poly_sub(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    width = max(len(a), len(b))
    out = np.zeros(width, dtype=np.int64)
    out[: len(a)] = a
    out[: len(b)] = (out[: len(b)] - b) % p
    return rs._poly_trim(out % p)


def _poly_divmod(num: np.ndarray, den: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder over GF(p); den need not be monic."""
    if len(den) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    num = num.copy() % p
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return np.zeros(0, dtype=np.int64), rs._poly_trim(num)
    lead_inv = pow(int(den[-1]), -1, p)
    quot = np.zeros(len(num) - dd, dtype=np.int64)
    for i in range(len(num) - 1, dd - 1, -1):
        c = int(num[i]) % p
        if c:
            c = c * lead_inv % p
            quot[i - dd] = c
            num[i - dd : i + 1] = (num[i - dd : i + 1] - c * den) % p
    return quot, rs._poly_trim(num[:dd])


def gao_decode_column(code, received: np.ndarray, erased: np.ndarray):
    """Message of the codeword within floor((m - k) / 2) of the m known positions, or None.

    On the known points, partial extended Euclid on (prod(x - x_i),
    interpolant of the received word) stops at the first remainder of
    degree below (m + k) / 2; the message polynomial is that remainder
    divided by its Bezout cofactor (Gao; the Berlekamp-Welch system, but
    quadratic).  Those two polynomials are the full code's g0 and the
    interpolant of Lambda * y divided by the erasure locator Lambda, so
    Euclid runs on the undivided ones: each remainder gains the factor
    Lambda, and the quotients and cofactors stay the same.
    """
    p, n, k = code.p, code.n, code.k
    e = len(erased)
    radius = (n - e - k) // 2
    if radius == 0:
        message, wrong = rs._solve_around(code, received[:, None], erased)
        return None if wrong[0] else message[:, 0]
    locator, values = rs._locator(code, erased)
    g0, basis = code.interpolation
    r_prev, r = g0, rs._poly_trim(gf._mat_mul_reduced(basis, values * received % p, p))
    v_prev, v = np.zeros(0, dtype=np.int64), np.array([1], dtype=np.int64)
    while len(r) and 2 * (len(r) - 1 - e) >= n - e + k:
        q, rem = _poly_divmod(r_prev, r, p)
        v_prev, v = v, _poly_sub(v_prev, rs._poly_mul(q, v, p), p)
        r_prev, r = r, rem
    if len(v) == 0:
        return None
    f, rem = _poly_divmod(r, rs._poly_mul(locator, v, p), p)
    if len(rem) or len(f) > k:
        return None
    message = np.zeros(k, dtype=np.int64)
    message[: len(f)] = f
    wrong = gf._mat_mul_reduced(code.gen_t, message, p) != received
    wrong[erased] = False
    if int(np.count_nonzero(wrong)) > radius:
        return None
    return message


def gao_recover_message(code, known: Mapping[int, object]) -> np.ndarray:
    """``rs.recover_message(code, known, correct=True)``, one Gao run per column.

    Raises the library's DecodingFailure, naming the first column that
    has no codeword within the radius of the known positions.
    """
    positions = sorted(known)
    values = gf.as_field([known[i] for i in positions], code.p)
    vector = values.ndim == 1
    rows = np.zeros((code.n, 1 if vector else values.shape[1]), dtype=np.int64)
    rows[positions] = values[:, None] if vector else values
    erased = np.delete(np.arange(code.n), positions)
    radius = (len(positions) - code.k) // 2
    message = np.zeros((code.k, rows.shape[1]), dtype=np.int64)
    for j in range(rows.shape[1]):
        column = gao_decode_column(code, rows[:, j], erased)
        if column is None:
            raise rs.DecodingFailure(f"no codeword within {radius} errors of column {j}")
        message[:, j] = column
    return message[:, 0] if vector else message


# --- storage and shared queries ---------------------------------------------------


def generator_code(gen_t, p: int) -> rs.RsCode:
    """An ``RsCode`` around any n x k generator, for the storage encoder and the
    shared-query solve, which read only its generator, n, k and p.  It has no
    evaluation points, so no RS decoder may take it."""
    gen_t = np.asarray(gen_t, dtype=np.int64)
    n, k = gen_t.shape
    return rs.RsCode(n=n, k=k, p=p, eval_points=np.zeros(0, dtype=np.int64), gen_t=gen_t)


def is_mds(code: rs.RsCode) -> bool:
    """Exhaustively check that every K rows of the generator are linearly independent."""
    for rows in combinations(range(code.n), code.k):
        if gf.mat_rank(code.gen_t[list(rows)], code.p) != code.k:
            return False
    return True


def answer_query(query, contents: np.ndarray, p: int) -> int:
    """One server response: dot product of the query with its contents column."""
    query = gf.as_field(query, p)
    if query.shape != contents.shape:
        raise ShapeMismatch(f"query length {query.shape} != server contents {contents.shape}")
    return int(gf.mat_mul(query[None, :], contents[:, None], p)[0, 0])


def decode_shared_query(responses: Mapping[int, int], code: rs.RsCode) -> np.ndarray:
    """The K-vector x with gen_t[n] . x = responses[n] for each server n."""
    servers = sorted(responses)
    if len(servers) != code.k:
        raise SingularSystem(f"need exactly {code.k} responses, got {len(servers)}")
    rhs = np.array([int(responses[n]) for n in servers], dtype=np.int64)
    try:
        return gf.factor(code.gen_t[servers], code.p).solve(rhs)
    except gf.NoSolution as exc:
        raise SingularSystem(f"storage code is not MDS on the rows of servers {servers}") from exc


# --- privacy audit ------------------------------------------------------------------


def atom_coeffs(plan) -> tuple[np.ndarray, ...]:
    """Every file's atom coefficients as one product: the block-diagonal
    matrix of its chunk generators (an identity block where a chunk has no
    code) times its whole mask.  The library derives no atom matrix."""
    atoms = []
    for chunks, mask in zip(plan.layout.chunks, plan.masks):
        diag = np.zeros((chunks[-1].atoms[1], plan.l_rows), dtype=np.int64)
        for c in chunks:
            gen = np.eye(c.k, dtype=np.int64) if c.code is None else c.code.gen_t
            diag[c.atoms[0] : c.atoms[1], c.rows[0] : c.rows[1]] = gen
        atoms.append(gf.mat_mul(diag, mask, plan.params.modulus))
    return tuple(atoms)


def visible_symbols(plan, servers) -> list[int]:
    """Symbols whose subsets intersect the given server set."""
    view = set(servers)
    return [s for s, blk in enumerate(plan.layout.array.symbols) if view & set(blk)]


def expected_view_dim(plan, servers) -> int:
    """Predicted rank of any one file's atoms visible to these servers."""
    hits = len(visible_symbols(plan, servers))
    if plan.params.variant is plans.Variant.MULTI_FILE:
        return plan.layout.ab.total * hits
    return plan.layout.ab.total ** (plan.params.n_files - 1) * hits


def dense_view_ranks(plan, servers) -> tuple[int, ...]:
    """Per-file rank of the visible atom coefficients, by elimination."""
    visible = visible_symbols(plan, servers)
    coeffs = atom_coeffs(plan)
    ranks = []
    for f in range(plan.params.n_files):
        atom_ids: set[int] = set()
        for blk in plan.layout.blocks:
            if f in blk.label:
                atom_ids.update(blk.atom_start[f] + s for s in visible)
        rows = coeffs[f][sorted(atom_ids)]
        ranks.append(gf.mat_rank(rows, plan.params.modulus))
    return tuple(ranks)


def counted_view_ranks(plan, servers) -> tuple[int, ...]:
    """Per-file rank of the visible atoms, counted one set at a time: every
    visible atom of the file's blocks marked once in a ``seen`` array, then
    ``min(marked atoms, chunk.k)`` summed over the file's chunks."""
    visible = np.array(visible_symbols(plan, servers), dtype=np.int64)
    ranks = []
    for f, chunks in enumerate(plan.layout.chunks):
        starts = [blk.atom_start[f] for blk in plan.layout.blocks if f in blk.atom_start]
        seen = np.zeros(chunks[-1].atoms[1], dtype=np.int64)
        seen[(np.array(starts, dtype=np.int64)[:, None] + visible).ravel()] = 1
        per_chunk = np.add.reduceat(seen, [c.atoms[0] for c in chunks])
        ranks.append(int(np.minimum(per_chunk, [c.k for c in chunks]).sum()))
    return tuple(ranks)


def vandermonde_columns(points, width, p) -> np.ndarray:
    """Powers points[i]**j for j < width, one column at a time."""
    out = np.empty((len(points), width), dtype=np.int64)
    if width == 0:
        return out
    out[:, 0] = 1
    for j in range(1, width):
        out[:, j] = out[:, j - 1] * points % p
    return out


def dense_session(plan, db, adversary=None) -> Transcript:
    """``run_session`` through the dense query view: each server's queries,
    stacked as M*L vectors, dotted with its stored contents."""
    p = plan.params.modulus
    adversary = adversary or Adversary()
    contents = encode_database(db, plan.layout.storage_code)
    responses = []
    downloaded = 0
    for n in range(contents.shape[1]):
        if n in adversary.robust_set:
            responses.append(None)
            continue
        mine = [q.vector for q in plan.queries if n in q.servers]
        answers = gf.mat_mul(np.stack(mine), contents[:, n], p) if mine else np.zeros(0, dtype=np.int64)
        if n in adversary.byzantine_set:
            rng = gf.FieldRng(gf.derive_seed(gf.derive_seed(adversary.seed, ADVERSARY_STREAM), n), p)
            answers = gf.as_field(adversary.corruption(rng, n, answers), p)
        responses.append(answers)
        downloaded += len(mine)
    return Transcript(responses=tuple(responses), downloaded_symbols=downloaded)


# --- plan JSON ----------------------------------------------------------------------


def bookkeeping(params: plans.SchemeParams, layout: plans.Layout) -> dict:
    """The v1 plan JSON fields that the layout determines, as the layout gives them.

    A block's ``desired_rows`` are the mask rows of the desired file's
    chunk behind its atoms, when that chunk has a code.
    """
    b, des = layout.array.n_symbols, params.desired[0]

    def desired_rows(blk: plans.Block) -> list[int] | None:
        if des not in blk.atom_start:
            return None
        a = blk.atom_start[des]
        chunk = next(c for c in layout.chunks[des] if c.atoms[0] <= a < c.atoms[1])
        return None if chunk.code is None else list(chunk.rows)

    def code(c: rs.RsCode | None) -> dict | None:
        return None if c is None else {"n": c.n, "k": c.k}

    return {
        "alpha": layout.ab.alpha,
        "beta": layout.ab.beta,
        "l_rows": layout.l_rows,
        "array": {
            "symbols": [list(s) for s in layout.array.symbols],
            "columns": [list(c) for c in layout.array.columns],
        },
        "blocks": [
            {
                "label": list(blk.label),
                "atoms": {str(f): list(range(a, a + b)) for f, a in sorted(blk.atom_start.items())},
                "mix_row": blk.mix_row,
                "mix_round": blk.mix_round,
                "desired_rows": desired_rows(blk),
            }
            for blk in layout.blocks
        ],
        "groups": [
            {
                "base_label": list(g.base_label),
                "pure_blocks": list(g.pure_blocks),
                "mixed_blocks": list(g.mixed_blocks),
                "atom_start": {str(f): c.atoms[0] for f, c in sorted(g.chunks.items())},
                "row_slices": {str(f): list(c.rows) for f, c in sorted(g.chunks.items())},
            }
            for g in layout.groups
        ],
        "big_code": code(layout.big_code),
        "small_code": code(layout.small_code),
    }


def plan_json(plan) -> str:
    """The v1 plan document built from Python lists and dumped in one call.

    The library writes and reads v2 only; v1 documents, with their
    bookkeeping and every atom coefficient, come from here.
    """
    doc = {
        "schema": "coded-pir-plan/1",
        "params": plans.params_to_dict(plan.params),
        **bookkeeping(plan.params, plan.layout),
        "atom_coeffs": [a.tolist() for a in atom_coeffs(plan)],
        "masks": [s.tolist() for s in plan.masks],
        "mix_matrix": None if plan.mix_matrix is None else plan.mix_matrix.tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def plan_json_v2(plan) -> str:
    """The v2 plan document: the mask bytes packed one Python int at a time."""
    packed = b"".join(int(x).to_bytes(4, "little") for mask in plan.masks for x in mask.ravel().tolist())
    doc = {
        "schema": "coded-pir-plan/2",
        "params": plans.params_to_dict(plan.params),
        "masks": base64.b64encode(packed).decode("ascii"),
        "mix_matrix": None if plan.mix_matrix is None else plan.mix_matrix.tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
