"""Deterministic query-plan construction for the five retrieval variants.

A plan has a layout and a seeded part.  The layout (``derive_layout``)
is the public scheme, a pure function of the parameters: the pure/mixed
block ratio (alpha, beta), the assisting array, the codes, the storage
code included, and per file a tuple of chunks, each a range of mask rows
under one MDS code (or none) that yields a range of atoms; per block the
first atom of each labelled file; per group its pure and mixed blocks;
and, built on first use, each server's query ids and each symbol's
storage inverses.  Every per-scheme value is read from ``plan.layout``.
The seeded part is one invertible mask per file, plus the multifile
mixing matrix; a plan holds nothing else.
A file's atom coefficients stack, chunk after chunk, the chunk's
generator times its mask rows.  Query ``block * b + s``, shared by the K
servers of symbol s, sums atom ``atom_start[f] + s`` of each labelled
file f (times the block's mixing entry on multifile).  Neither the atoms
nor the queries are stored: a session applies the chunk generators to
the masks' projection of the files (``storage.run_session``), and only
the dense ``QueryPlan.queries`` view, kept for inspection, writes the
atoms out.

Construction, validation, the privacy audit (``rates``), decoding and
the plan JSON all read the one layout.  The plan JSON (v2) stores only
the parameters, the masks and the mixing matrix; the layout is derived
again on load.  A v1 document, which also stored the bookkeeping and the
atoms, is refused: identical (params, seed) pairs produce bit-identical
plans on every platform, so building its params again gives the same
plan.

Variant summary, writing g = alpha + beta, b = number of assisting-array
symbols, b_T = C(N-T,K), b_S = C(N-S,K), e_B = 2*C(N-B,K) - C(N,K):

    prototype   alpha * b   = g * (b - b_T)    L = b * g**(M-1)
    robust      alpha * b_S = g * (b - b_T)    L = b_S * g**(M-1)
    byzantine   alpha * e_B = g * (b - b_T)    L = e_B * g**(M-1)
    multifile   alpha * b   = g * (b - b_T)    L = g * b
    pattern     alpha * b   = g * delta        L = b * g**(M-1)
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from math import comb, gcd

import numpy as np

from . import rs
from .gf import (
    DEFAULT_MODULUS,
    Factored,
    FieldError,
    FieldRng,
    check_modulus,
    derive_seed,
    factor,
    mat_mul,
    mat_rank,
    sample_invertible,
)
from .patterns import BlockFamily, CollusionPattern, PatternError, family_eval
from .patterns import _is_int, _is_ints, _is_sets, _parse_json

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


@dataclass(frozen=True)
class Chunk:
    """Atoms ``atoms`` of one file are ``code.gen_t @ mask[rows]``.

    ``code`` None means the atoms are the mask rows themselves.  Every
    chunk's generator is MDS, so any ``k`` of its atoms are independent.
    """

    code: rs.RsCode | None
    rows: tuple[int, int]
    atoms: tuple[int, int]

    @property
    def k(self) -> int:
        return self.rows[1] - self.rows[0]


@dataclass(frozen=True)
class Block:
    """One assisting-array-shaped slice of the query structure.

    Labelled file f contributes its atoms ``atom_start[f]`` onward, one
    per symbol of the array.
    """

    index: int
    label: tuple[int, ...]
    atom_start: dict[int, int]
    mix_row: int | None = None  # multifile: row of the mixing matrix
    mix_round: int | None = None  # multifile: which beta-round of shared atoms


@dataclass(frozen=True)
class Group:
    """alpha pure blocks plus beta mixed blocks tied by one big codeword.

    ``chunks[f]`` is the big-code chunk of each base-label file; its
    atoms run over the mixed blocks first, then the pure ones.
    """

    base_label: tuple[int, ...]
    pure_blocks: tuple[int, ...]
    mixed_blocks: tuple[int, ...]
    chunks: dict[int, Chunk]


@dataclass(frozen=True)
class Layout:
    """The public scheme: everything about a plan that its parameters fix on their own.

    ``chunks[f]`` tiles file f's atoms in order; the blocks say which
    atoms each query touches, the groups which blocks share a codeword.
    What sessions and decodes derive from it, the servers' query ids and
    the symbols' storage inverses, is cached here on first use.
    """

    ab: AlphaBeta
    l_rows: int
    array: AssistingArray
    big_code: rs.RsCode
    small_code: rs.RsCode | None
    storage_code: rs.RsCode  # server n stores every file row times gen_t row n
    chunks: tuple[tuple[Chunk, ...], ...]
    blocks: tuple[Block, ...]
    groups: tuple[Group, ...]

    @cached_property
    def server_queries(self) -> tuple[np.ndarray, ...]:
        """Per server n, the ids ``block * b + s`` of its queries: every block, every symbol s of column n."""
        firsts = np.arange(len(self.blocks))[:, None] * self.array.n_symbols
        return tuple((firsts + np.array(c, dtype=np.int64)).ravel() for c in self.array.columns)

    @cached_property
    def symbol_inverses(self) -> np.ndarray:
        """Per symbol, the inverse of its K servers' storage code rows: their Lagrange basis."""
        points = self.storage_code.eval_points[np.array(self.array.symbols)]
        return rs._interp_setup(self.storage_code.p, points)[1]


@dataclass(frozen=True)
class Query:
    """A single shared query, written out: one vector served by the K servers of a symbol."""

    index: int
    block: int
    symbol: int
    servers: tuple[int, ...]
    vector: np.ndarray


@dataclass(frozen=True, eq=False)
class QueryPlan:
    """One retrieval's secret part, the masks and the mixing matrix, over its public layout."""

    params: SchemeParams
    layout: Layout
    masks: tuple[np.ndarray, ...]
    mix_matrix: np.ndarray | None

    @property
    def l_rows(self) -> int:
        """The side of the masks."""
        return self.layout.l_rows

    @cached_property
    def mask_factors(self) -> dict[int, Factored]:
        """The desired files' masks, factored for decoding through them.

        ``build_plan`` sets this to the factors its rank tests left; any
        other plan factors its masks here, once, on first use.
        """
        return {f: factor(self.masks[f], self.params.modulus) for f in self.params.desired}

    @cached_property
    def queries(self) -> tuple[Query, ...]:
        """Every query as a dense M*L vector, for inspection; sessions and decoding never read it.

        Each file's atoms are derived for its slices of the vectors and
        dropped again; only the vectors are kept.
        """
        layout, p, m = self.layout, self.params.modulus, self.params.n_files
        l_rows, b = layout.l_rows, layout.array.n_symbols
        vectors = np.zeros((len(layout.blocks), b, m * l_rows), dtype=np.int64)
        for f in range(m):
            atoms = _atom_matrix(layout.chunks[f], self.masks[f], p)
            for blk in layout.blocks:
                if f not in blk.atom_start:
                    continue
                part = atoms[blk.atom_start[f] : blk.atom_start[f] + b]
                if blk.mix_row is not None:  # a mixed block scales the atoms by its mixing-row entry
                    part = int(self.mix_matrix[blk.mix_row, f]) * part % p
                vectors[blk.index, :, f * l_rows : (f + 1) * l_rows] = part
        return tuple(
            Query(index=blk.index * b + s, block=blk.index, symbol=s, servers=subset, vector=vectors[blk.index, s])
            for blk in layout.blocks
            for s, subset in enumerate(layout.array.symbols)
        )

    @cached_property
    def mix_factors(self) -> Factored:
        """The mixing matrix on the desired columns, factored for decoding through it."""
        assert self.mix_matrix is not None
        return factor(self.mix_matrix[:, list(self.params.desired)], self.params.modulus)

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


def derive_layout(params: SchemeParams) -> Layout:
    """The chunks, blocks and groups of every plan built from ``params``."""
    params.validate()
    n, m = params.n_servers, params.n_files
    multi = params.variant is Variant.MULTI_FILE
    family = params.family
    if params.variant is not Variant.PATTERN:
        family = BlockFamily.all_subsets(n, params.code_dim)
    b = family.b
    needs_small = params.variant in (Variant.ROBUST, Variant.BYZANTINE)
    try:
        x, y = _ratio_inputs(params, b)
        ab = compute_alpha_beta(x, y)
        longest = max([n, ab.total * b] + ([b] if needs_small else []) + ([m] if multi else []))
        if longest >= params.modulus:
            raise FieldTooSmall(
                f"plan needs a code of length {longest}; modulus {params.modulus} is too small"
            )
        big_code = rs.rs_transposed_generator(ab.total * b, ab.alpha * x, params.modulus)
        small_code = rs.rs_transposed_generator(b, x, params.modulus) if needs_small else None
        storage_code = rs.rs_transposed_generator(n, params.code_dim, params.modulus)
    except InfeasibleRatio as exc:
        raise PreconditionViolated(str(exc)) from exc
    except rs.InvalidShape as exc:
        raise FieldTooSmall(str(exc)) from exc
    if multi:
        chunks, blocks, groups = _multifile_blocks(params, ab, b, big_code)
    else:
        chunks, blocks, groups = _standard_blocks(params, ab, b, x, big_code, small_code)
    return Layout(
        ab=ab,
        l_rows=ab.total * b if multi else x * ab.total ** (m - 1),
        array=build_assisting_array(n, family),
        big_code=big_code,
        small_code=small_code,
        storage_code=storage_code,
        chunks=tuple(tuple(c) for c in chunks),
        blocks=tuple(blocks),
        groups=tuple(groups),
    )


def _standard_blocks(params, ab, b, x, big_code, small_code):
    """Blocks labelled by every nonempty file subset of size d, with
    multiplicity alpha**(M-d) * beta**(d-1).

    The desired file takes one chunk per block it labels, in block order:
    x mask rows under the small code, or b rows read directly.  Every
    other file takes one big-code chunk per group whose base label holds
    it.
    """
    m, des = params.n_files, params.desired[0]
    labels = [
        label
        for d in range(1, m + 1)
        for label in combinations(range(m), d)
        for _ in range(ab.alpha ** (m - d) * ab.beta ** (d - 1))
    ]
    chunks: list[list[Chunk]] = [[] for _ in range(m)]

    def next_chunk(f: int, code: rs.RsCode | None, k: int, n: int) -> Chunk:
        j = len(chunks[f])
        chunks[f].append(Chunk(code, (j * k, (j + 1) * k), (j * n, (j + 1) * n)))
        return chunks[f][-1]

    starts: list[dict[int, int]] = [{} for _ in labels]
    by_label: dict[tuple[int, ...], list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
        if des in label:
            starts[i][des] = next_chunk(des, small_code, x, b).atoms[0]

    groups: list[Group] = []
    others = [f for f in range(m) if f != des]
    for d in range(1, m):
        for base in combinations(others, d):
            pure, mixed = by_label[base], by_label[tuple(sorted(base + (des,)))]
            for g in range(len(pure) // ab.alpha):
                group = Group(
                    base_label=base,
                    pure_blocks=tuple(pure[g * ab.alpha : (g + 1) * ab.alpha]),
                    mixed_blocks=tuple(mixed[g * ab.beta : (g + 1) * ab.beta]),
                    chunks={f: next_chunk(f, big_code, big_code.k, big_code.n) for f in base},
                )
                for f, chunk in group.chunks.items():
                    for i, blk in enumerate(group.mixed_blocks + group.pure_blocks):
                        starts[blk][f] = chunk.atoms[0] + i * b
                groups.append(group)
    blocks = [Block(index=i, label=label, atom_start=starts[i]) for i, label in enumerate(labels)]
    return chunks, blocks, groups


def _multifile_blocks(params, ab, b, big_code):
    """alpha singleton blocks per file, then beta rounds of P fully mixed
    blocks sharing atom indices across all files.

    A desired file's atoms are its mask rows; an undesired file's are one
    big codeword whose first beta*b positions are the shared ones.
    """
    m, l_rows = params.n_files, ab.total * b
    chunks = [
        [Chunk(None, (0, l_rows), (0, l_rows))]
        if f in params.desired
        else [Chunk(big_code, (0, big_code.k), (0, big_code.n))]
        for f in range(m)
    ]
    specs = [((f,), {f: (ab.beta + lam) * b}, None, None) for f in range(m) for lam in range(ab.alpha)]
    specs += [
        (tuple(range(m)), {f: lam * b for f in range(m)}, row, lam)
        for lam in range(ab.beta)
        for row in range(params.p_desired)
    ]
    blocks = [
        Block(index=i, label=label, atom_start=start, mix_row=row, mix_round=lam)
        for i, (label, start, row, lam) in enumerate(specs)
    ]
    return chunks, blocks, []


def _atom_matrix(chunks: tuple[Chunk, ...], mask: np.ndarray, p: int) -> np.ndarray:
    """A file's atom coefficients: each chunk's generator times its mask rows.

    No build, session or decode derives them; the dense ``queries`` view
    and the v1 loader's check do, one file at a time.
    """
    return np.vstack([
        mask[c.rows[0] : c.rows[1]]
        if c.code is None
        else mat_mul(c.code.gen_t, mask[c.rows[0] : c.rows[1]], p)
        for c in chunks
    ])


def build_plan(params: SchemeParams) -> QueryPlan:
    """Construct the full deterministic query plan for ``params``.

    The layout fixes every chunk; the seeded stream then draws one
    invertible mask per file and, for multifile, the column order of the
    mixing matrix.  The desired files' masks keep the factors their rank
    tests left, which is all a decode needs to undo them.
    """
    layout = derive_layout(params)
    p, m = params.modulus, params.n_files
    rng = FieldRng(derive_seed(params.seed, PLAN_STREAM), p)
    masks: list[np.ndarray] = []
    mask_factors: dict[int, Factored] = {}
    for f in range(m):
        drawn = sample_invertible(layout.l_rows, p, rng)
        masks.append(drawn.matrix)
        if f in params.desired:
            mask_factors[f] = drawn
    mix_matrix = None
    if params.variant is Variant.MULTI_FILE:
        # Reed-Solomon generator with randomly permuted columns, so any P
        # of its M columns are independent.
        h_base = rs.rs_transposed_generator(m, params.p_desired, p).gen_t.T
        mix_matrix = h_base[:, rng.permutation(m)].copy()
    plan = QueryPlan(params=params, layout=layout, masks=tuple(masks), mix_matrix=mix_matrix)
    plan.__dict__["mask_factors"] = mask_factors  # fills the cached_property
    return plan


def validate_plan(plan: QueryPlan) -> list[str]:
    """Check what the layout does not guarantee; return the violations found.

    The layout, the queries and the atoms are derived from the
    parameters and masks, so they hold by construction.  What is left:
    the parameters; the one premise of the privacy audit's rank count
    (module ``rates``) that construction does not give a loaded plan,
    every mask is invertible; and a multifile mixing matrix invertible
    on the desired columns, whose factor a decode then reuses.
    """
    params = plan.params
    try:
        params.validate()
    except PreconditionViolated as exc:
        return [f"params: {exc}"]
    p, l_rows = params.modulus, plan.l_rows
    found = [
        f"mask of file {f} is not invertible"
        for f in range(params.n_files)
        if plan.masks[f].shape != (l_rows, l_rows) or mat_rank(plan.masks[f], p) != l_rows
    ]
    if plan.mix_matrix is not None and plan.mix_factors.rank < params.p_desired:
        found.append("mixing matrix is singular on the desired columns")
    return found


# --- canonical JSON serialization -------------------------------------------

_SCHEMA = "coded-pir-plan/2"
_FIELDS = {"schema", "params", "masks", "mix_matrix"}


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


_REQUIRED = object()
_VARIANTS = [x.value for x in Variant]
_INT = (_is_int, "an integer")
_SETS = (lambda v: v is None or _is_sets(v), "null or a nonempty list of integer lists")
# The fields of a params object: their check, what it asks for, and the
# value of an absent field.
_PARAM_FIELDS = {
    "variant": (lambda v: v in _VARIANTS, "one of " + ", ".join(_VARIANTS), _REQUIRED),
    "n_servers": (*_INT, _REQUIRED),
    "code_dim": (*_INT, _REQUIRED),
    "n_files": (*_INT, _REQUIRED),
    "desired": (_is_ints, "a list of integers", _REQUIRED),
    "collusion_size": (*_INT, 0),
    "s_robust": (*_INT, 0),
    "b_byzantine": (*_INT, 0),
    "pattern": (*_SETS, None),
    "family": (*_SETS, None),
    "modulus": (*_INT, _REQUIRED),
    "seed": (*_INT, _REQUIRED),
}


def params_from_dict(data: dict) -> SchemeParams:
    """The parameters of a plan document; SchemeError names a malformed field."""
    if not isinstance(data, dict):
        raise SchemeError(f"params must be an object, got {json.dumps(data)}")
    fields = {}
    for key, (valid, what, default) in _PARAM_FIELDS.items():
        if key not in data and default is _REQUIRED:
            raise SchemeError(f"params.{key} is missing")
        fields[key] = data.get(key, default)
        if key in data and not valid(fields[key]):
            raise SchemeError(f"params.{key} must be {what}, got {json.dumps(fields[key])}")
    pattern, family = fields["pattern"], fields["family"]
    try:
        fields["pattern"] = None if pattern is None else CollusionPattern(tuple(map(tuple, pattern)))
        fields["family"] = None if family is None else BlockFamily(tuple(map(tuple, family)), len(family[0]))
    except PatternError as exc:
        raise SchemeError(f"params: {exc}") from None
    return SchemeParams(**fields)


def _json_object(fields: dict[str, str | list[str]]) -> str:
    """A JSON object from already-encoded values, keys sorted as ``sort_keys`` does.

    A value may also be given as the list of its text's parts; every
    part is joined once, into the object's text.
    """
    parts = []
    for key, value in sorted(fields.items()):
        parts += [",", json.dumps(key), ":"]
        parts += [value] if isinstance(value, str) else value
    parts[0] = "{"
    parts.append("}")
    return "".join(parts)


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# Mask entries per base64 chunk of plan_to_json: a multiple of 3, so that
# every chunk but the last is a whole number of 3-byte base64 groups and
# carries no padding.
_B64_CHUNK = 3 * 2**15


def _masks_base64(plan: QueryPlan) -> list[str]:
    """The v2 ``masks`` string, quoted, as the list of its parts.

    The masks pass, file after file, through one ``_B64_CHUNK``-entry
    uint32 staging buffer, so no full-size copy of them is made; a chunk
    may straddle two masks.  Each mask is checked before it is copied.
    """
    p, m, l_rows = plan.params.modulus, plan.params.n_files, plan.l_rows
    if len(plan.masks) != m or any(
        mask.shape != (l_rows, l_rows) or mask.min() < 0 or mask.max() >= p for mask in plan.masks
    ):
        raise SchemeError(f"plan masks are not {m} matrices {l_rows} x {l_rows} over [0, {p})")
    stage = np.empty(_B64_CHUNK, dtype="<u4")
    parts, filled = ['"'], 0
    for mask in plan.masks:
        flat = mask.reshape(-1)
        while flat.size:
            n = min(flat.size, stage.size - filled)
            stage[filled : filled + n] = flat[:n]
            flat, filled = flat[n:], filled + n
            if filled == stage.size:
                parts.append(binascii.b2a_base64(stage, newline=False).decode("ascii"))
                filled = 0
    if filled:
        parts.append(binascii.b2a_base64(stage[:filled], newline=False).decode("ascii"))
    parts.append('"')
    return parts


def plan_to_json(plan: QueryPlan) -> str:
    """Canonical v2 JSON for golden-plan diffs; loadable by plan_from_json.

    The text is ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``
    of ``{schema, params, masks, mix_matrix}``.  ``masks`` is base64 of
    every file's L x L mask as little-endian uint32, row-major, file after
    file (every modulus is below 2**32), encoded in chunks and joined once
    with the rest of the text; ``mix_matrix`` is a list of integer rows,
    or null off multifile.
    """
    fields = {
        "schema": _compact(_SCHEMA),
        "params": _compact(params_to_dict(plan.params)),
        "masks": _masks_base64(plan),
        "mix_matrix": _compact(None if plan.mix_matrix is None else plan.mix_matrix.tolist()),
    }
    return _json_object(fields)


def _refuse_float(text: str):
    raise SchemeError(f"plan JSON holds the non-integer number {text}; plans hold integers only")


def _stored_matrix(value, name: str, shape: tuple[int, int] | None, p: int, error=SchemeError) -> np.ndarray:
    """One stored integer matrix, refused (``error``) unless it has ``shape`` (or any 2-D one) and entries in [0, p)."""
    try:
        a = np.array(value)
    except ValueError:
        raise error(f"{name} has ragged rows") from None
    if a.ndim != 2 or a.shape != (shape or a.shape):
        raise error(f"{name} has shape {a.shape}, not {shape or 'rows x columns'}")
    if a.dtype.kind not in "iu" and a.size:
        # The parsers keep float literals out of float arrays, so a float
        # array holds integers beyond 64 bits, and so may an object array.
        if a.dtype.kind == "f" or (a.dtype.kind == "O" and all(type(x) is int for x in a.flat)):
            raise error(f"{name} has entries outside [0, {p})")
        raise error(f"{name} has non-integer entries")
    # numpy reads true and false among integers as 1 and 0
    if a.size and any(bool in set(map(type, row)) for row in value):
        raise error(f"{name} has non-integer entries")
    if a.size and (a.min() < 0 or a.max() >= p):
        raise error(f"{name} has entries outside [0, {p})")
    return a.astype(np.int64, copy=False)


def _stored_masks(value, m: int, l_rows: int, p: int) -> tuple[np.ndarray, ...]:
    """The v2 ``masks``: strict base64 of exactly m L x L little-endian uint32 masks, entries below p."""
    if not isinstance(value, str):
        raise SchemeError("masks must be a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:
        raise SchemeError(f"masks is not base64: {exc}") from None
    if len(raw) != 4 * m * l_rows * l_rows:
        raise SchemeError(
            f"masks holds {len(raw)} bytes, not the {4 * m * l_rows * l_rows} of {m} uint32 masks {l_rows} x {l_rows}"
        )
    masks = np.frombuffer(raw, dtype="<u4").reshape(m, l_rows, l_rows)
    if masks.max() >= p:
        raise SchemeError(f"masks has entries outside [0, {p})")
    return tuple(masks.astype(np.int64))


def plan_from_json(text: str) -> QueryPlan:
    """Load a v2 plan; its layout is derived from the stored params.

    The document must hold exactly ``schema``, ``params``, ``masks`` and
    ``mix_matrix``.  SchemeError refuses a v1 document, naming its
    schema, and masks that are not L x L integers in [0, p), one per
    file, and a mixing matrix that is not P x M integers in [0, p)
    exactly when the variant is multifile, and text that is not JSON,
    naming the line and column or the nesting.  No query is assembled,
    and the plan keeps no atoms.
    """
    doc = _parse_json(text, "plan JSON", SchemeError, _refuse_float)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema == "coded-pir-plan/1":
        raise SchemeError(
            f"plan schema {schema!r} is no longer read; `coded-pir build` with the document's params"
            " regenerates the identical plan"
        )
    if schema != _SCHEMA:
        raise SchemeError(f"unknown plan schema {schema!r}")
    if set(doc) != _FIELDS:
        raise SchemeError(f"a {_SCHEMA} plan has the fields {sorted(doc)}, not {sorted(_FIELDS)}")
    params = params_from_dict(doc["params"])
    layout = derive_layout(params)
    p, m = params.modulus, params.n_files
    masks = _stored_masks(doc["masks"], m, layout.l_rows, p)
    mix = doc["mix_matrix"]
    if params.variant is Variant.MULTI_FILE:
        if mix is None:
            raise SchemeError("mix_matrix is missing from a multifile plan")
        mix = _stored_matrix(mix, "mix_matrix", (params.p_desired, m), p)
    elif mix is not None:
        raise SchemeError(f"mix_matrix is stored on a {params.variant.value} plan")
    return QueryPlan(params=params, layout=layout, masks=masks, mix_matrix=mix)
