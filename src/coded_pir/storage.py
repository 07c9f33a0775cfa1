"""Server-side storage encoding and retrieval sessions.

Each of the M files is an L x K matrix; server n stores, file-major, the
projection of every file row onto its row of the layout's (N, K) storage
code, an ``rs.RsCode``.  ``encode_database`` returns all servers'
contents as one (M*L, N) array, column n for server n.  A session
answers every query at every server from one projection per file, then
applies the configured adversary: robust servers stay silent, Byzantine
servers corrupt every response.  Download accounting only counts
responses that actually arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable

import numpy as np

from . import rs
from .gf import FieldError, FieldRng, _mat_mul_reduced, _reduce, as_field
from .gf import check_modulus, derive_seed, mat_mul
from .patterns import _parse_json
from .plans import Chunk, QueryPlan, _compact, _stored_matrix

DATABASE_STREAM = 2
ADVERSARY_STREAM = 3


class StorageError(Exception):
    pass


class ShapeMismatch(StorageError):
    pass


@dataclass(frozen=True)
class Database:
    """M files of identical L x K shape over a common field."""

    files: tuple[np.ndarray, ...]
    p: int

    def __post_init__(self):
        if not self.files:
            raise ShapeMismatch("a database needs at least one file")
        shapes = {f.shape for f in self.files}
        if len(shapes) > 1:
            raise ShapeMismatch(f"files differ in shape: {sorted(shapes)}")

    @property
    def m(self) -> int:
        return len(self.files)

    @property
    def l_rows(self) -> int:
        return self.files[0].shape[0]

    @property
    def k(self) -> int:
        return self.files[0].shape[1]


def random_database(m: int, l_rows: int, k: int, p: int, seed: int = 0) -> Database:
    """Uniform random database, deterministic in the seed."""
    rng = FieldRng(derive_seed(seed, DATABASE_STREAM), p)
    return Database(files=tuple(rng.matrix(l_rows, k) for _ in range(m)), p=p)


def database_for_plan(plan: QueryPlan, seed: int | None = None) -> Database:
    s = plan.params.seed if seed is None else seed
    return random_database(
        plan.params.n_files, plan.l_rows, plan.params.code_dim, plan.params.modulus, s
    )


def database_to_json(db: Database) -> str:
    """``json.dumps({"files": [...], "p": p}, sort_keys=True, separators=(",", ":"))``."""
    return _compact({"files": [f.tolist() for f in db.files], "p": db.p})


def database_from_json(text: str) -> Database:
    """Load a database: ``p`` passes ``check_modulus`` and the files are integer
    matrices of one shape in [0, p), or StorageError names the field at fault.

    Float literals parse as strings, so they are refused, not truncated.
    Text that is not JSON is refused naming the line and column, or the
    nesting.
    """
    doc = _parse_json(text, "database JSON", StorageError, str)
    if not isinstance(doc, dict):
        raise StorageError("database JSON must be an object")
    p = doc.get("p")
    try:
        check_modulus(p)
    except FieldError as exc:
        raise StorageError(f"p: {exc}") from None
    files = doc.get("files")
    if not isinstance(files, list) or not files:
        raise StorageError("files must be a non-empty list of matrices")
    first = _stored_matrix(files[0], "files[0]", None, p, StorageError)
    rest = (_stored_matrix(f, f"files[{i}]", first.shape, p, StorageError) for i, f in enumerate(files[1:], 1))
    return Database(files=(first, *rest), p=p)


def encode_database(db: Database, code: rs.RsCode) -> np.ndarray:
    """The stored contents as one (M*L, N) array: column n, server n's, holds
    every file row, file after file, times row n of ``code.gen_t``."""
    if code.k != db.k:
        raise ShapeMismatch(f"storage code dimension {code.k} != file width {db.k}")
    if code.p != db.p:
        raise ShapeMismatch(f"storage code modulus {code.p} != database modulus {db.p}")
    return mat_mul(np.vstack(db.files), code.gen_t.T, db.p)


CorruptionFn = Callable[[FieldRng, int, np.ndarray], np.ndarray]


def _default_corruption(rng: FieldRng, server: int, responses: np.ndarray) -> np.ndarray:
    """Add an independent uniform nonzero element to every response."""
    return (responses + rng.nonzero(len(responses))) % rng.p


@dataclass(frozen=True)
class Adversary:
    """Fault placement for one session.

    ``robust_set`` servers never answer; ``byzantine_set`` servers pass
    their honest responses through ``corruption`` (by default adding an
    independent uniform nonzero element to each, so every corrupted
    response is actually wrong).
    """

    robust_set: tuple[int, ...] = ()
    byzantine_set: tuple[int, ...] = ()
    seed: int = 0
    corruption: CorruptionFn = field(default=_default_corruption, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "robust_set", tuple(sorted(set(self.robust_set))))
        object.__setattr__(self, "byzantine_set", tuple(sorted(set(self.byzantine_set))))


@dataclass(frozen=True)
class Transcript:
    """Per-server responses of one session; None marks an absent server."""

    responses: tuple[np.ndarray | None, ...]
    downloaded_symbols: int


def _atom_answers(chunks: tuple[Chunk, ...], mask: np.ndarray, encoded: np.ndarray, p: int) -> np.ndarray:
    """Every atom of one file against its encoded rows: ``atoms @ encoded``, with no atom matrix.

    The rows the chunks use are projected through the mask once.  Each
    run of consecutive chunks under one code then takes a single product
    with the code's generator: its j-th chunk's k projected rows become
    columns ``j * N`` onward of one (k, chunks * N) operand, and the
    product's column blocks, stacked again, are the run's atoms.
    """
    cols = encoded.shape[1]
    rows = _mat_mul_reduced(mask[: chunks[-1].rows[1]], encoded, p)
    parts = []
    for _, run in groupby(chunks, key=lambda c: id(c.code)):
        run = list(run)
        code = run[0].code
        block = rows[run[0].rows[0] : run[-1].rows[1]]
        if code is None:
            parts.append(block)
            continue
        side = block.reshape(len(run), code.k, cols).transpose(1, 0, 2).reshape(code.k, -1)
        answers = _mat_mul_reduced(code.gen_t, side, p)
        parts.append(answers.reshape(code.n, len(run), cols).transpose(1, 0, 2).reshape(-1, cols))
    return np.vstack(parts)


def run_session(plan: QueryPlan, db: Database, adversary: Adversary | None = None) -> Transcript:
    """Answer every planned query against the database encoded with the plan's storage code.

    File f's atoms are its chunk generators times its mask rows, so
    ``proj = blockdiag(generators) @ (mask_f @ W_f @ G)`` answers every
    atom of file f at every server: the mask projects the encoded file
    once, and each run of consecutive chunks under one code takes one
    2-D product, its row blocks laid side by side as a (k, chunks * N)
    operand.  A block's answers add ``c * proj[atom_start[f] :][:b]``
    over its files, c its mixing entry or 1, reduced after each addition.
    """
    layout, p = plan.layout, plan.params.modulus
    b, n_servers = layout.array.n_symbols, layout.storage_code.n
    if adversary is None:
        adversary = Adversary()
    if db.m != plan.params.n_files or db.l_rows != plan.l_rows or db.k != plan.params.code_dim:
        raise ShapeMismatch(
            f"database shape ({db.m}, {db.l_rows}, {db.k}) does not match the plan"
        )
    if any(n < 0 or n >= n_servers for n in adversary.robust_set + adversary.byzantine_set):
        raise ShapeMismatch("adversary names servers outside the system")

    encoded = encode_database(db, layout.storage_code)
    table = np.zeros((len(layout.blocks), b, n_servers), dtype=np.int64)
    for f in range(plan.params.n_files):
        proj = _atom_answers(layout.chunks[f], plan.masks[f], encoded[f * db.l_rows : (f + 1) * db.l_rows], p)
        blocks = [blk for blk in layout.blocks if f in blk.atom_start]
        ids = [blk.index for blk in blocks]
        rows = np.array([blk.atom_start[f] for blk in blocks])[:, None] + np.arange(b)
        scale = [1 if blk.mix_row is None else int(plan.mix_matrix[blk.mix_row, f]) for blk in blocks]
        table[ids] = _reduce(table[ids] + np.array(scale)[:, None, None] * proj[rows], p)
    table = table.reshape(-1, n_servers)  # row block * b + s: query block * b + s
    responses: list[np.ndarray | None] = []
    downloaded = 0
    for n in range(n_servers):
        if n in adversary.robust_set:
            responses.append(None)
            continue
        qids = layout.server_queries[n]
        answers = table[qids, n]
        if n in adversary.byzantine_set:
            rng = FieldRng(derive_seed(derive_seed(adversary.seed, ADVERSARY_STREAM), n), p)
            answers = as_field(adversary.corruption(rng, n, answers), p)
            if answers.shape != (len(qids),):
                raise ShapeMismatch("corruption strategy changed the response count")
        responses.append(answers)
        downloaded += len(qids)
    return Transcript(responses=tuple(responses), downloaded_symbols=downloaded)
