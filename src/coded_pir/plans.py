"""Deterministic query-plan construction for the five retrieval variants.

A plan fixes everything the user-side randomness decides: the pure/mixed
block ratio (alpha, beta), the assisting array, the block and group
layout, and per file an atom coefficient matrix whose rows express each
atom as a combination of that file's rows.  Queries are vectors in the
concatenated M*L coordinate space; each one is shared by the K servers
of its symbol's subset.

Construction is pure bookkeeping plus seeded sampling, so identical
(params, seed) pairs produce bit-identical plans on every platform.

Variant summary, writing g = alpha + beta, b = number of assisting-array
symbols, b_T = C(N-T,K), b_S = C(N-S,K), e_B = 2*C(N-B,K) - C(N,K):

    prototype   alpha * b   = g * (b - b_T)    L = b * g**(M-1)
    robust      alpha * b_S = g * (b - b_T)    L = b_S * g**(M-1)
    byzantine   alpha * e_B = g * (b - b_T)    L = e_B * g**(M-1)
    multifile   alpha * b   = g * (b - b_T)    L = g * b
    pattern     alpha * b   = g * delta        L = b * g**(M-1)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import combinations
from math import comb, gcd

import numpy as np

from . import rs
from .gf import (
    DEFAULT_MODULUS,
    FieldError,
    FieldRng,
    check_modulus,
    derive_seed,
    mat_inv,
    mat_mul,
    mat_rank,
    sample_invertible,
)
from .patterns import BlockFamily, CollusionPattern, family_eval

PLAN_STREAM = 1


class SchemeError(Exception):
    pass


class PreconditionViolated(SchemeError):
    pass


class FieldTooSmall(SchemeError):
    pass


class InfeasibleRatio(SchemeError):
    """The ratio equation has no positive solution (x <= y)."""


class Variant(str, Enum):
    PROTOTYPE = "prototype"
    ROBUST = "robust"
    BYZANTINE = "byzantine"
    MULTI_FILE = "multifile"
    PATTERN = "pattern"


@dataclass(frozen=True)
class AlphaBeta:
    """Pure/mixed block counts per group: alpha pure, beta mixed."""

    alpha: int
    beta: int

    @property
    def total(self) -> int:
        return self.alpha + self.beta


def compute_alpha_beta(x: int, y: int) -> AlphaBeta:
    """Smallest positive integers with alpha * x = (alpha + beta) * y.

    Requires 0 < y < x; alpha = y/g and beta = (x-y)/g with
    g = gcd(y, x-y) are minimal since gcd(alpha, beta) = 1.
    """
    if not 0 < y < x:
        raise InfeasibleRatio(f"ratio equation needs 0 < y < x, got x={x}, y={y}")
    g = gcd(y, x - y)
    return AlphaBeta(alpha=y // g, beta=(x - y) // g)


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of one retrieval scheme instance.

    ``desired`` holds the retrieved file indices: a single index for all
    variants except multifile, which retrieves P = len(desired) files at
    once.  ``collusion_size`` (T) is ignored by the pattern variant,
    which takes an explicit pattern and block family instead.
    """

    variant: Variant
    n_servers: int
    code_dim: int
    n_files: int
    desired: tuple[int, ...] = (0,)
    collusion_size: int = 0
    s_robust: int = 0
    b_byzantine: int = 0
    pattern: CollusionPattern | None = None
    family: BlockFamily | None = None
    modulus: int = DEFAULT_MODULUS
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        des = tuple(sorted(int(i) for i in (
            self.desired if isinstance(self.desired, (tuple, list)) else (self.desired,)
        )))
        object.__setattr__(self, "desired", des)

    @property
    def p_desired(self) -> int:
        return len(self.desired)

    def validate(self) -> None:
        """Raise PreconditionViolated naming the first failed inequality."""
        n, k, t, m = self.n_servers, self.code_dim, self.collusion_size, self.n_files
        try:
            check_modulus(self.modulus)
        except FieldError as exc:
            raise PreconditionViolated(str(exc)) from exc
        if n < 1 or not 1 <= k <= n:
            raise PreconditionViolated(f"need 1 <= K <= N, got K={k}, N={n}")
        if m < 1:
            raise PreconditionViolated(f"need at least one file, got M={m}")
        if len(set(self.desired)) != len(self.desired) or not self.desired:
            raise PreconditionViolated("desired file set is empty or has repeats")
        if any(i < 0 or i >= m for i in self.desired):
            raise PreconditionViolated(f"desired files {self.desired} outside range(M={m})")
        if self.variant is not Variant.MULTI_FILE and len(self.desired) != 1:
            raise PreconditionViolated(f"{self.variant.value} retrieves a single file")

        if self.variant is Variant.PATTERN:
            if self.pattern is None or self.family is None:
                raise PreconditionViolated("pattern variant needs a collusion pattern and a block family")
            if self.family.k != k:
                raise PreconditionViolated(
                    f"family blocks have size {self.family.k}, storage code dimension is {k}"
                )
            for blk in self.family.blocks:
                if blk[-1] >= n:
                    raise PreconditionViolated(f"family block {blk} outside range(N={n})")
            for s in self.pattern.maximal_sets:
                if s[-1] >= n:
                    raise PreconditionViolated(f"collusion set {s} outside range(N={n})")
            ev = family_eval(self.pattern, self.family)
            if ev.b <= ev.delta:
                raise PreconditionViolated(
                    f"pattern scheme requires b > delta, got b={ev.b}, delta={ev.delta}"
                )
            if ev.delta < 1:
                raise PreconditionViolated(
                    "pattern scheme requires delta >= 1; some collusion set must touch the family"
                )
            return

        if not 1 <= t:
            raise PreconditionViolated(f"need T >= 1, got T={t}")
        if t + k > n:
            raise PreconditionViolated(f"scheme requires T + K <= N, got {t}+{k} > {n}")
        cn = comb(n, k)
        ct = comb(n - t, k)
        if self.variant is Variant.ROBUST:
            s = self.s_robust
            if not 0 <= s < n:
                raise PreconditionViolated(f"need 0 <= S < N, got S={s}")
            if comb(n - s, k) <= cn - ct:
                raise PreconditionViolated(
                    "robust scheme requires C(N-S,K) > C(N,K) - C(N-T,K), got "
                    f"{comb(n - s, k)} <= {cn - ct}"
                )
        elif self.variant is Variant.BYZANTINE:
            bz = self.b_byzantine
            if not 0 <= bz < n:
                raise PreconditionViolated(f"need 0 <= B < N, got B={bz}")
            if 2 * comb(n - bz, k) - cn <= cn - ct:
                raise PreconditionViolated(
                    "byzantine scheme requires 2*C(N-B,K) - C(N,K) > C(N,K) - C(N-T,K), "
                    f"got {2 * comb(n - bz, k) - cn} <= {cn - ct}"
                )
        elif self.variant is Variant.MULTI_FILE:
            if 2 * self.p_desired < m:
                raise PreconditionViolated(
                    f"multifile scheme requires 2P >= M, got P={self.p_desired}, M={m}"
                )


@dataclass(frozen=True)
class AssistingArray:
    """Per-server columns of symbol ids; symbol s lives on subset s."""

    n_servers: int
    symbols: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...]

    @property
    def n_symbols(self) -> int:
        return len(self.symbols)

    @property
    def entries(self) -> int:
        """Total array cells = downloads per block when all servers answer."""
        return sum(len(c) for c in self.columns)


def build_assisting_array(n_servers: int, family: BlockFamily) -> AssistingArray:
    """Column n lists the symbols whose subsets contain server n."""
    columns = tuple(
        tuple(s for s, blk in enumerate(family.blocks) if n in blk) for n in range(n_servers)
    )
    return AssistingArray(n_servers=n_servers, symbols=family.blocks, columns=columns)


@dataclass
class Block:
    """One assisting-array-shaped slice of the query structure."""

    index: int
    label: tuple[int, ...]
    atoms: dict[int, tuple[int, ...]] = field(default_factory=dict)
    mix_row: int | None = None  # multifile: row of the mixing matrix
    mix_round: int | None = None  # multifile: which beta-round of shared atoms
    desired_rows: tuple[int, int] | None = None  # robust/byzantine: mask row slice


@dataclass
class Group:
    """alpha pure blocks plus beta mixed blocks tied by one big codeword."""

    base_label: tuple[int, ...]
    pure_blocks: tuple[int, ...]
    mixed_blocks: tuple[int, ...]
    atom_start: dict[int, int] = field(default_factory=dict)
    row_slices: dict[int, tuple[int, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class Query:
    """A single shared query: one vector served by the K servers of a symbol."""

    index: int
    block: int
    symbol: int
    servers: tuple[int, ...]
    vector: np.ndarray


@dataclass(frozen=True, eq=False)
class QueryPlan:
    params: SchemeParams
    ab: AlphaBeta
    l_rows: int
    array: AssistingArray
    blocks: tuple[Block, ...]
    groups: tuple[Group, ...]
    atom_coeffs: tuple[np.ndarray, ...]
    masks: tuple[np.ndarray, ...]
    queries: tuple[Query, ...]
    server_queries: tuple[tuple[int, ...], ...]
    mix_matrix: np.ndarray | None
    big_code: rs.RsCode | None
    small_code: rs.RsCode | None

    @property
    def n_symbols(self) -> int:
        return self.array.n_symbols

    @cached_property
    def mask_inverses(self) -> dict[int, np.ndarray]:
        """Inverses of the desired files' masks, computed once per plan."""
        return {f: mat_inv(self.masks[f], self.params.modulus) for f in self.params.desired}

    def query_id(self, block: int, symbol: int) -> int:
        return block * self.n_symbols + symbol

    def visible_symbols(self, servers) -> list[int]:
        """Symbols whose subsets intersect the given server set."""
        view = set(servers)
        return [s for s, blk in enumerate(self.array.symbols) if view & set(blk)]

    def expected_view_dim(self, servers) -> int:
        """Predicted rank of any one file's atoms visible to these servers."""
        hits = len(self.visible_symbols(servers))
        if self.params.variant is Variant.MULTI_FILE:
            return self.ab.total * hits
        return self.ab.total ** (self.params.n_files - 1) * hits

    def maximal_collusion_sets(self) -> tuple[tuple[int, ...], ...]:
        if self.params.variant is Variant.PATTERN:
            assert self.params.pattern is not None
            return self.params.pattern.maximal_sets
        return tuple(combinations(range(self.params.n_servers), self.params.collusion_size))


def _ratio_inputs(params: SchemeParams, b: int) -> tuple[int, int]:
    n, k, t = params.n_servers, params.code_dim, params.collusion_size
    if params.variant is Variant.PATTERN:
        assert params.pattern is not None and params.family is not None
        return b, family_eval(params.pattern, params.family).delta
    y = comb(n, k) - comb(n - t, k)
    if params.variant is Variant.ROBUST:
        return comb(n - params.s_robust, k), y
    if params.variant is Variant.BYZANTINE:
        return 2 * comb(n - params.b_byzantine, k) - comb(n, k), y
    return b, y


def _check_field_size(params: SchemeParams, lengths: list[int]) -> None:
    worst = max(lengths)
    if worst >= params.modulus:
        raise FieldTooSmall(
            f"plan needs a code of length {worst}; modulus {params.modulus} is too small"
        )


def _standard_blocks(params: SchemeParams, ab: AlphaBeta) -> list[Block]:
    """Blocks labelled by every nonempty file subset of size d, with
    multiplicity alpha**(M-d) * beta**(d-1)."""
    m = params.n_files
    blocks: list[Block] = []
    for d in range(1, m + 1):
        mult = ab.alpha ** (m - d) * ab.beta ** (d - 1)
        for label in combinations(range(m), d):
            for _ in range(mult):
                blocks.append(Block(index=len(blocks), label=label))
    return blocks


def _standard_plan(params: SchemeParams, family: BlockFamily, rng: FieldRng) -> QueryPlan:
    p = params.modulus
    m = params.n_files
    des = params.desired[0]
    b = family.b
    x, y = _ratio_inputs(params, b)
    ab = compute_alpha_beta(x, y)
    l_rows = x * ab.total ** (m - 1)

    needs_small = params.variant in (Variant.ROBUST, Variant.BYZANTINE)
    big_n, big_k = ab.total * b, ab.alpha * x
    lengths = [params.n_servers, big_n] + ([b] if needs_small else [])
    _check_field_size(params, lengths)

    array = build_assisting_array(params.n_servers, family)
    masks = tuple(sample_invertible(l_rows, p, rng) for _ in range(m))
    big_code = rs.rs_transposed_generator(big_n, big_k, p)
    small_code = rs.rs_transposed_generator(b, x, p) if needs_small else None

    blocks = _standard_blocks(params, ab)

    chunks: dict[int, list[np.ndarray]] = {f: [] for f in range(m)}
    atom_counts = {f: 0 for f in range(m)}

    # Desired-file atoms, block by block in construction order.
    if needs_small:
        assert small_code is not None
        row_cursor = 0
        for blk in blocks:
            if des not in blk.label:
                continue
            sl = (row_cursor, row_cursor + x)
            row_cursor += x
            blk.desired_rows = sl
            blk.atoms[des] = tuple(range(atom_counts[des], atom_counts[des] + b))
            chunks[des].append(mat_mul(small_code.gen_t, masks[des][sl[0] : sl[1]], p))
            atom_counts[des] += b
        assert row_cursor == l_rows
    else:
        row_cursor = 0
        for blk in blocks:
            if des not in blk.label:
                continue
            blk.atoms[des] = tuple(range(row_cursor, row_cursor + b))
            row_cursor += b
        assert row_cursor == l_rows
        chunks[des].append(masks[des])
        atom_counts[des] = l_rows

    # Undesired-file atoms, one big codeword per (group, file).
    by_label: dict[tuple[int, ...], list[int]] = {}
    for blk in blocks:
        by_label.setdefault(blk.label, []).append(blk.index)
    groups: list[Group] = []
    row_cursors = {f: 0 for f in range(m) if f != des}
    others = [f for f in range(m) if f != des]
    for d in range(1, m):
        for base in combinations(others, d):
            pure = by_label[base]
            mixed = by_label[tuple(sorted(base + (des,)))]
            n_groups = len(pure) // ab.alpha
            assert len(mixed) == n_groups * ab.beta
            for g in range(n_groups):
                group = Group(
                    base_label=base,
                    pure_blocks=tuple(pure[g * ab.alpha : (g + 1) * ab.alpha]),
                    mixed_blocks=tuple(mixed[g * ab.beta : (g + 1) * ab.beta]),
                )
                for f in base:
                    sl = (row_cursors[f], row_cursors[f] + big_k)
                    row_cursors[f] += big_k
                    if sl[1] > l_rows:
                        raise SchemeError("mask rows exhausted; ratio bookkeeping is wrong")
                    group.row_slices[f] = sl
                    group.atom_start[f] = atom_counts[f]
                    chunks[f].append(mat_mul(big_code.gen_t, masks[f][sl[0] : sl[1]], p))
                    pos = atom_counts[f]
                    for blk_id in group.mixed_blocks + group.pure_blocks:
                        blocks[blk_id].atoms[f] = tuple(range(pos, pos + b))
                        pos += b
                    atom_counts[f] = pos
                groups.append(group)

    atom_coeffs = tuple(
        np.vstack(chunks[f]) if chunks[f] else np.zeros((0, l_rows), dtype=np.int64)
        for f in range(m)
    )
    queries, server_queries = _assemble_queries(params, array, blocks, atom_coeffs, None)
    return QueryPlan(
        params=params,
        ab=ab,
        l_rows=l_rows,
        array=array,
        blocks=tuple(blocks),
        groups=tuple(groups),
        atom_coeffs=atom_coeffs,
        masks=masks,
        queries=queries,
        server_queries=server_queries,
        mix_matrix=None,
        big_code=big_code,
        small_code=small_code,
    )


def _multifile_plan(params: SchemeParams, family: BlockFamily, rng: FieldRng) -> QueryPlan:
    p = params.modulus
    m = params.n_files
    b = family.b
    x, y = _ratio_inputs(params, b)
    ab = compute_alpha_beta(x, y)
    l_rows = ab.total * b
    big_n, big_k = ab.total * b, ab.alpha * b
    _check_field_size(params, [params.n_servers, big_n, m])

    array = build_assisting_array(params.n_servers, family)
    masks = tuple(sample_invertible(l_rows, p, rng) for _ in range(m))
    big_code = rs.rs_transposed_generator(big_n, big_k, p)
    # Mixing matrix: Reed-Solomon generator with randomly permuted columns,
    # so any P of its M columns are independent.
    h_base = rs.rs_transposed_generator(m, params.p_desired, p).gen_t.T
    mix_matrix = h_base[:, rng.permutation(m)].copy()

    desired = set(params.desired)
    chunks = []
    for f in range(m):
        if f in desired:
            chunks.append(masks[f])
        else:
            chunks.append(mat_mul(big_code.gen_t, masks[f][:big_k], p))
    atom_coeffs = tuple(chunks)

    blocks: list[Block] = []
    for f in range(m):
        for lam in range(ab.alpha):
            start = (ab.beta + lam) * b
            blocks.append(
                Block(
                    index=len(blocks),
                    label=(f,),
                    atoms={f: tuple(range(start, start + b))},
                )
            )
    all_files = tuple(range(m))
    for lam in range(ab.beta):
        for row in range(params.p_desired):
            shared = {f: tuple(range(lam * b, (lam + 1) * b)) for f in range(m)}
            blocks.append(
                Block(
                    index=len(blocks),
                    label=all_files,
                    atoms=shared,
                    mix_row=row,
                    mix_round=lam,
                )
            )

    queries, server_queries = _assemble_queries(params, array, blocks, atom_coeffs, mix_matrix)
    return QueryPlan(
        params=params,
        ab=ab,
        l_rows=l_rows,
        array=array,
        blocks=tuple(blocks),
        groups=(),
        atom_coeffs=atom_coeffs,
        masks=masks,
        queries=queries,
        server_queries=server_queries,
        mix_matrix=mix_matrix,
        big_code=big_code,
        small_code=None,
    )


def _assemble_queries(
    params: SchemeParams,
    array: AssistingArray,
    blocks: list[Block],
    atom_coeffs: tuple[np.ndarray, ...],
    mix_matrix: np.ndarray | None,
) -> tuple[tuple[Query, ...], tuple[tuple[int, ...], ...]]:
    p = params.modulus
    m = params.n_files
    l_rows = atom_coeffs[params.desired[0]].shape[1]
    queries: list[Query] = []
    per_server: list[list[int]] = [[] for _ in range(params.n_servers)]
    for blk in blocks:
        vectors = np.zeros((array.n_symbols, m * l_rows), dtype=np.int64)
        for f in blk.label:
            coeff = 1 if blk.mix_row is None else int(mix_matrix[blk.mix_row, f])
            rows = atom_coeffs[f][list(blk.atoms[f])]
            vectors[:, f * l_rows : (f + 1) * l_rows] = coeff * rows % p
        for s, subset in enumerate(array.symbols):
            qid = len(queries)
            queries.append(
                Query(index=qid, block=blk.index, symbol=s, servers=subset, vector=vectors[s])
            )
            for n in subset:
                per_server[n].append(qid)
    return tuple(queries), tuple(tuple(q) for q in per_server)


def build_plan(params: SchemeParams) -> QueryPlan:
    """Construct the full deterministic query plan for ``params``."""
    params.validate()
    try:
        family = (
            params.family
            if params.variant is Variant.PATTERN
            else BlockFamily.all_subsets(params.n_servers, params.code_dim)
        )
        assert family is not None
        rng = FieldRng(derive_seed(params.seed, PLAN_STREAM), params.modulus)
        if params.variant is Variant.MULTI_FILE:
            return _multifile_plan(params, family, rng)
        return _standard_plan(params, family, rng)
    except InfeasibleRatio as exc:
        raise PreconditionViolated(str(exc)) from exc
    except rs.InvalidShape as exc:
        raise FieldTooSmall(str(exc)) from exc


def validate_plan(plan: QueryPlan) -> list[str]:
    """Re-derive every structural invariant; return the violations found."""
    out: list[str] = []
    params = plan.params
    m, k = params.n_files, params.code_dim
    ab = plan.ab
    b = plan.array.n_symbols
    try:
        params.validate()
    except PreconditionViolated as exc:
        out.append(f"params: {exc}")
        return out

    x, _ = _ratio_inputs(params, b)
    expect_l = ab.total * b if params.variant is Variant.MULTI_FILE else x * ab.total ** (m - 1)
    if plan.l_rows != expect_l:
        out.append(f"row count {plan.l_rows} != variant formula {expect_l}")

    for s, subset in enumerate(plan.array.symbols):
        if len(subset) != k:
            out.append(f"symbol {s} has size {len(subset)} != K")
        for n in range(params.n_servers):
            count = plan.array.columns[n].count(s)
            if count != (1 if n in subset else 0):
                out.append(f"symbol {s} appears {count} times in column {n}")

    # Block label multiplicities.
    label_counts: dict[tuple[int, ...], int] = {}
    for blk in plan.blocks:
        label_counts[blk.label] = label_counts.get(blk.label, 0) + 1
    if params.variant is Variant.MULTI_FILE:
        expected_counts = {(f,): ab.alpha for f in range(m)}
        if params.p_desired * ab.beta:
            expected_counts[tuple(range(m))] = (
                expected_counts.get(tuple(range(m)), 0) + params.p_desired * ab.beta
            )
    else:
        expected_counts = {}
        for d in range(1, m + 1):
            for label in combinations(range(m), d):
                expected_counts[label] = ab.alpha ** (m - d) * ab.beta ** (d - 1)
    if label_counts != expected_counts:
        out.append(f"block multiplicity: got {label_counts}, expected {expected_counts}")

    # Queries: one per (block, symbol), served exactly by the symbol's subset.
    if len(plan.queries) != len(plan.blocks) * b:
        out.append("query count != blocks * symbols")
    membership: dict[int, list[int]] = {q.index: [] for q in plan.queries}
    for n, qids in enumerate(plan.server_queries):
        for qid in qids:
            membership[qid].append(n)
    for q in plan.queries:
        if tuple(membership[q.index]) != q.servers:
            out.append(f"query {q.index} multiplicity != K (served by {membership[q.index]})")
        if q.servers != plan.array.symbols[q.symbol]:
            out.append(f"query {q.index} servers disagree with its symbol")
    # Vectors must match the atom bookkeeping.
    l_rows = plan.l_rows
    for q in plan.queries:
        if q.block >= len(plan.blocks):
            out.append(f"query {q.index} references unknown block {q.block}")
            break
        blk = plan.blocks[q.block]
        vec = np.zeros(m * l_rows, dtype=np.int64)
        for f in blk.label:
            coeff = 1 if blk.mix_row is None else int(plan.mix_matrix[blk.mix_row, f])
            vec[f * l_rows : (f + 1) * l_rows] = (
                vec[f * l_rows : (f + 1) * l_rows]
                + coeff * plan.atom_coeffs[f][blk.atoms[f][q.symbol]]
            ) % params.modulus
        if not np.array_equal(vec, q.vector):
            out.append(f"query {q.index} vector disagrees with its atoms")
            break

    # Groups partition the desired-free-labelled blocks and their mixed partners.
    if params.variant is not Variant.MULTI_FILE:
        des = params.desired[0]
        seen: set[int] = set()
        for g, group in enumerate(plan.groups):
            if len(group.pure_blocks) != ab.alpha or len(group.mixed_blocks) != ab.beta:
                out.append(f"group {g} does not hold alpha pure + beta mixed blocks")
            if any(i >= len(plan.blocks) for i in group.pure_blocks + group.mixed_blocks):
                out.append(f"group {g} references an unknown block")
                continue
            for blk_id in group.pure_blocks:
                if plan.blocks[blk_id].label != group.base_label:
                    out.append(f"group {g} pure block {blk_id} has the wrong label")
            for blk_id in group.mixed_blocks:
                if plan.blocks[blk_id].label != tuple(sorted(group.base_label + (des,))):
                    out.append(f"group {g} mixed block {blk_id} has the wrong label")
            for blk_id in group.pure_blocks + group.mixed_blocks:
                if blk_id in seen:
                    out.append(f"block {blk_id} appears in two groups")
                seen.add(blk_id)
        ungrouped = set(range(len(plan.blocks))) - seen
        for blk_id in sorted(ungrouped):
            if plan.blocks[blk_id].label != (des,):
                out.append(f"block {blk_id} belongs to no group")

        # Row-slice bookkeeping: disjoint, in range, and within budget.
        for f in range(m):
            slices = []
            if f == des:
                if params.variant in (Variant.ROBUST, Variant.BYZANTINE):
                    slices = [blk.desired_rows for blk in plan.blocks if des in blk.label]
                    if None in slices:
                        out.append("desired-labelled block lacks a mask row slice")
                        continue
            else:
                slices = [g.row_slices[f] for g in plan.groups if f in g.row_slices]
            used: set[int] = set()
            for lo, hi in slices:
                if not 0 <= lo < hi <= plan.l_rows:
                    out.append(f"file {f} row slice ({lo},{hi}) out of range")
                span = set(range(lo, hi))
                if used & span:
                    out.append(f"file {f} row slices intersect")
                used |= span
            if f == des and params.variant in (Variant.ROBUST, Variant.BYZANTINE):
                if used != set(range(plan.l_rows)):
                    out.append("desired mask rows are not fully consumed")
        if m >= 2:
            budget = ab.total ** (m - 2) * ab.alpha * x
            if budget > plan.l_rows:
                out.append(f"row budget {budget} exceeds L={plan.l_rows}")

    # Label symmetry: every maximal collusion set sees equally many atoms per file.
    for t in plan.maximal_collusion_sets():
        visible = plan.visible_symbols(t)
        per_file = []
        for f in range(m):
            atoms = set()
            for blk in plan.blocks:
                if f in blk.label:
                    atoms.update(blk.atoms[f][s] for s in visible)
            per_file.append(len(atoms))
        if len(set(per_file)) > 1:
            out.append(f"collusion set {t} sees unequal atom counts {per_file}")

    # Premises of the privacy audit's rank count (module ``rates``): every
    # mask is invertible, and every file's atom coefficients are its chunk
    # generators times rows of its mask (disjoint rows, checked above).
    for f in range(m):
        mask = plan.masks[f]
        if mask.shape != (plan.l_rows, plan.l_rows) or mat_rank(mask, params.modulus) != plan.l_rows:
            out.append(f"mask of file {f} is not invertible")
        expected = _chunk_products(plan, f)
        if expected is None or not np.array_equal(expected, plan.atom_coeffs[f]):
            out.append(f"atom matrix for file {f} is not its chunk generators times its mask rows")
        if plan.atom_coeffs[f].shape[1] != plan.l_rows:
            out.append(f"atom matrix for file {f} has width != L")
    return out


def _chunk_products(plan: QueryPlan, f: int) -> np.ndarray | None:
    """File f's atom coefficients rebuilt from its mask, chunk after chunk.

    None when the row bookkeeping does not give each chunk generator
    exactly as many mask rows as its dimension.
    """
    mask = plan.masks[f]
    if f in plan.params.desired and plan.small_code is None:
        return mask
    if plan.params.variant is Variant.MULTI_FILE:
        code, slices = plan.big_code, [(0, plan.big_code.k)]
    elif f in plan.params.desired:
        code = plan.small_code
        slices = [blk.desired_rows for blk in plan.blocks if f in blk.label]
    else:
        code, slices = plan.big_code, [g.row_slices[f] for g in plan.groups if f in g.row_slices]
    if any(sl is None or mask[sl[0] : sl[1]].shape[0] != code.k for sl in slices):
        return None
    parts = [mat_mul(code.gen_t, mask[lo:hi], plan.params.modulus) for lo, hi in slices]
    return np.vstack(parts) if parts else np.zeros((0, mask.shape[1]), dtype=np.int64)


# --- canonical JSON serialization -------------------------------------------

_SCHEMA = "coded-pir-plan/1"


def params_to_dict(params: SchemeParams) -> dict:
    return {
        "variant": params.variant.value,
        "n_servers": params.n_servers,
        "code_dim": params.code_dim,
        "n_files": params.n_files,
        "desired": list(params.desired),
        "collusion_size": params.collusion_size,
        "s_robust": params.s_robust,
        "b_byzantine": params.b_byzantine,
        "pattern": None if params.pattern is None else [list(s) for s in params.pattern.maximal_sets],
        "family": None if params.family is None else [list(s) for s in params.family.blocks],
        "modulus": params.modulus,
        "seed": params.seed,
    }


def params_from_dict(data: dict) -> SchemeParams:
    pattern = data.get("pattern")
    family = data.get("family")
    return SchemeParams(
        variant=Variant(data["variant"]),
        n_servers=data["n_servers"],
        code_dim=data["code_dim"],
        n_files=data["n_files"],
        desired=tuple(data["desired"]),
        collusion_size=data.get("collusion_size", 0),
        s_robust=data.get("s_robust", 0),
        b_byzantine=data.get("b_byzantine", 0),
        pattern=None if pattern is None else CollusionPattern(tuple(tuple(s) for s in pattern)),
        family=None
        if family is None
        else BlockFamily(tuple(tuple(s) for s in family), len(family[0])),
        modulus=data["modulus"],
        seed=data["seed"],
    )


def plan_to_json(plan: QueryPlan) -> str:
    """Canonical JSON for golden-plan diffs; loadable by plan_from_json."""
    doc = {
        "schema": _SCHEMA,
        "params": params_to_dict(plan.params),
        "alpha": plan.ab.alpha,
        "beta": plan.ab.beta,
        "l_rows": plan.l_rows,
        "array": {
            "symbols": [list(s) for s in plan.array.symbols],
            "columns": [list(c) for c in plan.array.columns],
        },
        "blocks": [
            {
                "label": list(blk.label),
                "atoms": {str(f): list(a) for f, a in sorted(blk.atoms.items())},
                "mix_row": blk.mix_row,
                "mix_round": blk.mix_round,
                "desired_rows": None if blk.desired_rows is None else list(blk.desired_rows),
            }
            for blk in plan.blocks
        ],
        "groups": [
            {
                "base_label": list(g.base_label),
                "pure_blocks": list(g.pure_blocks),
                "mixed_blocks": list(g.mixed_blocks),
                "atom_start": {str(f): v for f, v in sorted(g.atom_start.items())},
                "row_slices": {str(f): list(v) for f, v in sorted(g.row_slices.items())},
            }
            for g in plan.groups
        ],
        "atom_coeffs": [a.tolist() for a in plan.atom_coeffs],
        "masks": [s.tolist() for s in plan.masks],
        "mix_matrix": None if plan.mix_matrix is None else plan.mix_matrix.tolist(),
        "big_code": None if plan.big_code is None else {"n": plan.big_code.n, "k": plan.big_code.k},
        "small_code": None
        if plan.small_code is None
        else {"n": plan.small_code.n, "k": plan.small_code.k},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def plan_from_json(text: str) -> QueryPlan:
    doc = json.loads(text)
    if doc.get("schema") != _SCHEMA:
        raise SchemeError(f"unknown plan schema {doc.get('schema')!r}")
    params = params_from_dict(doc["params"])
    ab = AlphaBeta(alpha=doc["alpha"], beta=doc["beta"])
    array = AssistingArray(
        n_servers=params.n_servers,
        symbols=tuple(tuple(s) for s in doc["array"]["symbols"]),
        columns=tuple(tuple(c) for c in doc["array"]["columns"]),
    )
    blocks = [
        Block(
            index=i,
            label=tuple(raw["label"]),
            atoms={int(f): tuple(a) for f, a in raw["atoms"].items()},
            mix_row=raw["mix_row"],
            mix_round=raw["mix_round"],
            desired_rows=None if raw["desired_rows"] is None else tuple(raw["desired_rows"]),
        )
        for i, raw in enumerate(doc["blocks"])
    ]
    groups = tuple(
        Group(
            base_label=tuple(raw["base_label"]),
            pure_blocks=tuple(raw["pure_blocks"]),
            mixed_blocks=tuple(raw["mixed_blocks"]),
            atom_start={int(f): v for f, v in raw["atom_start"].items()},
            row_slices={int(f): tuple(v) for f, v in raw["row_slices"].items()},
        )
        for raw in doc["groups"]
    )
    atom_coeffs = tuple(np.array(a, dtype=np.int64).reshape(-1, doc["l_rows"]) for a in doc["atom_coeffs"])
    masks = tuple(np.array(s, dtype=np.int64) for s in doc["masks"])
    mix = None if doc["mix_matrix"] is None else np.array(doc["mix_matrix"], dtype=np.int64)
    big = (
        None
        if doc["big_code"] is None
        else rs.rs_transposed_generator(doc["big_code"]["n"], doc["big_code"]["k"], params.modulus)
    )
    small = (
        None
        if doc["small_code"] is None
        else rs.rs_transposed_generator(doc["small_code"]["n"], doc["small_code"]["k"], params.modulus)
    )
    queries, server_queries = _assemble_queries(params, array, blocks, atom_coeffs, mix)
    return QueryPlan(
        params=params,
        ab=ab,
        l_rows=doc["l_rows"],
        array=array,
        blocks=tuple(blocks),
        groups=groups,
        atom_coeffs=atom_coeffs,
        masks=masks,
        queries=queries,
        server_queries=server_queries,
        mix_matrix=mix,
        big_code=big,
        small_code=small,
    )
