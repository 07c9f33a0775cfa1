"""Slow, independent reference implementations the tests compare against.

None of these run in the library: each re-derives a result that the
production code computes another way, so a disagreement points at one
of the two.
"""

import json
from itertools import combinations
from typing import Mapping

import numpy as np

from coded_pir import gf, plans, rs
from coded_pir.storage import (
    ADVERSARY_STREAM,
    Adversary,
    ServerState,
    ShapeMismatch,
    StorageCode,
    Transcript,
    encode_database,
)


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
    quot, rem = rs._poly_divmod(q_poly, e_poly, p)
    if len(rem):
        return None
    message = np.zeros(k, dtype=np.int64)
    message[: min(k, len(quot))] = quot[:k]
    word = gf.mat_mul(code.gen_t, message, p)
    if int(np.count_nonzero((word - received) % p)) > radius:
        return None
    return word


# --- storage and shared queries ---------------------------------------------------


def is_mds(code: StorageCode) -> bool:
    """Exhaustively check that every K columns are linearly independent."""
    k = code.k
    for cols in combinations(range(code.n_servers), k):
        if gf.mat_rank(code.gen[:, cols], code.p) != k:
            return False
    return True


def answer_query(query, server: ServerState, p: int) -> int:
    """One server response: dot product of the query with its contents."""
    query = gf.as_field(query, p)
    if query.shape != server.contents.shape:
        raise ShapeMismatch(
            f"query length {query.shape} != server contents {server.contents.shape}"
        )
    return int(gf.mat_mul(query[None, :], server.contents[:, None], p)[0, 0])


def decode_shared_query(responses: Mapping[int, int], code: StorageCode) -> np.ndarray:
    """The K-vector x with x . g_n = responses[n] for each server n."""
    servers = sorted(responses)
    if len(servers) != code.k:
        raise SingularSystem(f"need exactly {code.k} responses, got {len(servers)}")
    rhs = np.array([int(responses[n]) for n in servers], dtype=np.int64)
    try:
        return gf.mat_solve(code.gen[:, servers].T, rhs, code.p)
    except gf.NoSolution as exc:
        raise SingularSystem(f"storage code is not MDS on columns {servers}") from exc


# --- privacy audit ------------------------------------------------------------------


def dense_view_ranks(plan, servers) -> tuple[int, ...]:
    """Per-file rank of the visible atom coefficients, by elimination."""
    visible = plan.visible_symbols(servers)
    ranks = []
    for f in range(plan.params.n_files):
        atom_ids: set[int] = set()
        for blk in plan.blocks:
            if f in blk.label:
                atom_ids.update(blk.atom_start[f] + s for s in visible)
        rows = plan.atom_coeffs[f][sorted(atom_ids)]
        ranks.append(gf.mat_rank(rows, plan.params.modulus))
    return tuple(ranks)


def dense_session(plan, db, adversary=None) -> Transcript:
    """``run_session`` through the dense query view: each server's queries,
    stacked as M*L vectors, dotted with its stored contents."""
    p = plan.params.modulus
    code = StorageCode(gen=plan.layout.storage_code.gen_t.T, p=p)
    adversary = adversary or Adversary()
    servers = encode_database(db, code)
    responses = []
    downloaded = 0
    for n in range(code.n_servers):
        if n in adversary.robust_set:
            responses.append(None)
            continue
        mine = [q.vector for q in plan.queries if n in q.servers]
        answers = gf.mat_mul(np.stack(mine), servers[n].contents, p) if mine else np.zeros(0, dtype=np.int64)
        if n in adversary.byzantine_set:
            rng = gf.FieldRng(gf.derive_seed(gf.derive_seed(adversary.seed, ADVERSARY_STREAM), n), p)
            answers = gf.as_field(adversary.corruption(rng, n, answers), p)
        responses.append(answers)
        downloaded += len(mine)
    return Transcript(responses=tuple(responses), downloaded_symbols=downloaded)


# --- plan JSON ----------------------------------------------------------------------


def matrix_json(a) -> str:
    """A 2-D integer array as compact JSON, through Python lists."""
    return json.dumps(np.asarray(a).tolist(), separators=(",", ":"))


def plan_json(plan) -> str:
    """The v1 plan document built from Python lists and dumped in one call."""
    doc = {
        "schema": plans._SCHEMA,
        "params": plans.params_to_dict(plan.params),
        **plans._bookkeeping(plan.params, plan.layout),
        "atom_coeffs": [a.tolist() for a in plan.atom_coeffs],
        "masks": [s.tolist() for s in plan.masks],
        "mix_matrix": None if plan.mix_matrix is None else plan.mix_matrix.tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
