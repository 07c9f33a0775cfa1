"""User-side decoding of retrieval sessions.

Decoding follows a fixed order: (1) solve every shared query from the K
responses of its symbol's servers; (2) per group, rebuild the
interference codeword from the pure blocks (completing erasures or
correcting errors as the variant demands); (3) subtract interference
from mixed blocks; (4) per chunk of the desired file, recover the mask
rows behind its atoms; (5) invert the desired files' masks.  Groups,
blocks and chunks are read from the plan's layout.  Wherever more
values are available than needed, consistency is verified and any
mismatch surfaces as DecodingFailure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import rs
from .gf import NoSolution, _mat_mul_reduced, mat_inv, mat_mul
from .plans import Chunk, QueryPlan, Variant
from .storage import StorageCode, Transcript, rs_storage_code


class DecodeError(Exception):
    pass


class DecodingFailure(DecodeError):
    pass


class MissingResponses(DecodeError):
    pass


class SingularSystem(DecodeError):
    pass


FLAG_DIRECT = "direct"
FLAG_ERASURE = "erasure-completed"
FLAG_ERROR = "error-corrected"


@dataclass
class RecoveredAtoms:
    """Atom values a decoding session reconstituted, with provenance.

    ``values[f][a]`` is the K-vector value of atom ``a`` of file ``f``;
    ``flags`` marks how each value was obtained: read straight off a
    (possibly interference-subtracted) query, filled in by erasure
    completion, or repaired by error correction.  Every atom of every
    desired file is present; undesired files appear where their atoms
    are individually recoverable (blocks mixing a single undesired file).
    """

    values: dict[int, dict[int, np.ndarray]]
    flags: dict[int, dict[int, str]]

    def add(self, f: int, atom: int, value: np.ndarray, flag: str) -> None:
        self.values.setdefault(f, {})[atom] = value
        self.flags.setdefault(f, {})[atom] = flag


def _query_values(
    plan: QueryPlan, transcript: Transcript, code: StorageCode
) -> list[np.ndarray | None]:
    """Value of every shared query, batched per symbol; None = unretrievable."""
    p = plan.params.modulus
    absent = {n for n, r in enumerate(transcript.responses) if r is None}
    position = [
        {qid: i for i, qid in enumerate(qids)} for qids in plan.server_queries
    ]
    n_blocks = len(plan.blocks)
    values: list[np.ndarray | None] = [None] * len(plan.queries)
    for s, subset in enumerate(plan.array.symbols):
        if absent & set(subset):
            continue
        try:
            inv = mat_inv(code.gen[:, list(subset)].T, p)
        except NoSolution as exc:
            raise SingularSystem(f"storage code is not MDS on columns {subset}") from exc
        qids = [blk * plan.n_symbols + s for blk in range(n_blocks)]
        resp = np.empty((len(subset), n_blocks), dtype=np.int64)
        for i, n in enumerate(subset):
            resp[i] = [transcript.responses[n][position[n][q]] for q in qids]
        solved = mat_mul(inv, resp, p)
        for j, qid in enumerate(qids):
            values[qid] = solved[:, j]
    return values


def _flags(known: Mapping[int, np.ndarray], word: np.ndarray) -> list[str]:
    """Provenance of every position of a word decoded from the known ones."""
    flags = [FLAG_ERASURE] * len(word)
    positions = list(known)
    if positions:
        read = np.stack([known[t] for t in positions])
        changed = np.any(word[positions] != read, axis=1).tolist()
        for t, c in zip(positions, changed):
            flags[t] = FLAG_ERROR if c else FLAG_DIRECT
    return flags


def _group_interference(
    plan: QueryPlan, values: list[np.ndarray | None], record: RecoveredAtoms, correct: bool
) -> dict[int, np.ndarray]:
    """Interference value of every mixed-block query, group by group.

    Pure-block query values of a group lie on one codeword of the big
    code (positions beta*b onward); the codeword, and with it the mixed
    positions 0..beta*b-1, is decoded from them.  Groups mixing a single
    undesired file yield that file's atoms individually and are recorded.
    """
    b = plan.n_symbols
    ab = plan.ab
    interference: dict[int, np.ndarray] = {}
    for group in plan.groups:
        known: dict[int, np.ndarray] = {}
        for i, blk_id in enumerate(group.pure_blocks):
            for s in range(b):
                v = values[blk_id * b + s]
                if v is not None:
                    known[ab.beta * b + i * b + s] = v
        full = rs.encode(plan.big_code, rs.recover_message(plan.big_code, known, correct))
        for j, blk_id in enumerate(group.mixed_blocks):
            for s in range(b):
                interference[blk_id * b + s] = full[j * b + s]
        if len(group.base_label) == 1:
            ((f, chunk),) = group.chunks.items()
            for t, flag in enumerate(_flags(known, full)):
                record.add(f, chunk.atoms[0] + t, full[t], flag)
    return interference


def _recover_batch(
    code: rs.RsCode, known: list[dict[int, np.ndarray]], correct: bool
) -> np.ndarray:
    """Messages of words with the same known positions, side by side.

    The words are decoded as one interleaved word, so a liar's positions
    are located once for all of them.  On DecodingFailure the words are
    decoded one by one again, so that the error names the failing
    column within its own word.
    """
    stacked = {s: np.concatenate([vals[s] for vals in known]) for s in known[0]}
    try:
        return rs.recover_message(code, stacked, correct)
    except rs.DecodingFailure:
        for vals in known:
            rs.recover_message(code, vals, correct)
        raise


def _reconstruct_standard(
    plan: QueryPlan, values: list[np.ndarray | None], correct: bool
) -> tuple[dict[int, np.ndarray], RecoveredAtoms]:
    p = plan.params.modulus
    des = plan.params.desired[0]
    b = plan.n_symbols
    k = plan.params.code_dim
    record = RecoveredAtoms(values={}, flags={})
    interference = _group_interference(plan, values, record, correct)

    rows_value = np.zeros((plan.l_rows, k), dtype=np.int64)
    # Coded desired chunks (all on the small code) batched by known symbols.
    batches: dict[tuple[int, ...], list[tuple[Chunk, dict[int, np.ndarray]]]] = {}
    # One desired chunk per block the desired file labels, in block order.
    desired_blocks = [blk for blk in plan.blocks if des in blk.atom_start]
    for blk, chunk in zip(desired_blocks, plan.layout.chunks[des]):
        vals: dict[int, np.ndarray] = {}
        for s in range(b):
            qid = blk.index * b + s
            v = values[qid]
            if v is None:
                continue
            if len(blk.label) > 1:
                v = (v - interference[qid]) % p
            vals[s] = v
        lo, hi = chunk.rows
        if chunk.code is None:  # the atoms are the mask rows themselves
            for s, v in vals.items():
                rows_value[lo + s] = v
                record.add(des, chunk.atoms[0] + s, v, FLAG_DIRECT)
            continue
        batches.setdefault(tuple(vals), []).append((chunk, vals))
    for batch in batches.values():
        code = batch[0][0].code
        message = _recover_batch(code, [vals for _, vals in batch], correct)
        restored = rs.encode(code, message)
        for i, (chunk, vals) in enumerate(batch):
            columns = slice(i * k, (i + 1) * k)
            for s, flag in enumerate(_flags(vals, restored[:, columns])):
                record.add(des, chunk.atoms[0] + s, restored[s, columns], flag)
            rows_value[slice(*chunk.rows)] = message[:, columns]
    return {des: _mat_mul_reduced(plan.mask_inverses[des], rows_value, p)}, record


def _reconstruct_multifile(
    plan: QueryPlan, values: list[np.ndarray | None], correct: bool
) -> tuple[dict[int, np.ndarray], RecoveredAtoms]:
    p = plan.params.modulus
    b = plan.n_symbols
    ab = plan.ab
    k = plan.params.code_dim
    desired = list(plan.params.desired)
    undesired = [f for f in range(plan.params.n_files) if f not in plan.params.desired]
    assert plan.mix_matrix is not None
    record = RecoveredAtoms(values={}, flags={})

    atom_vals = {f: np.zeros((plan.l_rows, k), dtype=np.int64) for f in range(plan.params.n_files)}
    sigma: dict[tuple[int, int], int] = {}
    for blk in plan.blocks:
        if blk.mix_row is not None:
            sigma[(blk.mix_round, blk.mix_row)] = blk.index
            continue
        ((f, start),) = blk.atom_start.items()
        for s in range(b):
            atom_vals[f][start + s] = values[blk.index * b + s]
            record.add(f, start + s, values[blk.index * b + s], FLAG_DIRECT)

    # Undesired files ride the big code: singleton positions determine the rest.
    shared = ab.beta * b
    for f in undesired:
        (chunk,) = plan.layout.chunks[f]
        known = {t: atom_vals[f][t] for t in range(shared, chunk.atoms[1])}
        full = rs.encode(chunk.code, rs.recover_message(chunk.code, known, correct))
        atom_vals[f][:shared] = full[:shared]
        for t, flag in enumerate(_flags(known, full)[:shared]):
            record.add(f, t, full[t], flag)

    h = plan.mix_matrix
    try:
        hd_inv = mat_inv(h[:, desired], p)
    except NoSolution as exc:
        raise DecodingFailure("mixing matrix is singular on the desired columns") from exc
    for lam in range(ab.beta):
        rhs = np.empty((len(desired), b, k), dtype=np.int64)
        for row in range(len(desired)):
            blk = plan.blocks[sigma[(lam, row)]]
            for s in range(b):
                acc = values[blk.index * b + s].copy()
                t = lam * b + s
                for f in undesired:
                    acc = (acc - int(h[row, f]) * atom_vals[f][t]) % p
                rhs[row, s] = acc
        solved = _mat_mul_reduced(hd_inv, rhs.reshape(len(desired), b * k), p)
        solved = solved.reshape(len(desired), b, k)
        for i, f in enumerate(desired):
            atom_vals[f][lam * b : (lam + 1) * b] = solved[i]
            for s in range(b):
                record.add(f, lam * b + s, solved[i, s], FLAG_DIRECT)

    files = {f: _mat_mul_reduced(plan.mask_inverses[f], atom_vals[f], p) for f in desired}
    return files, record


def _run_pipeline(
    plan: QueryPlan, transcript: Transcript, code: StorageCode | None
) -> tuple[dict[int, np.ndarray], RecoveredAtoms]:
    params = plan.params
    if code is None:
        code = rs_storage_code(params.n_servers, params.code_dim, params.modulus)
    absent = [n for n, r in enumerate(transcript.responses) if r is None]
    if absent and params.variant is not Variant.ROBUST:
        raise MissingResponses(
            f"servers {absent} are absent; only the robust variant tolerates erasures"
        )
    values = _query_values(plan, transcript, code)
    # Only Byzantine plans reserve redundancy for correcting errors; the
    # others spend it on erasures or on detecting wrong responses.
    correct = params.variant is Variant.BYZANTINE
    try:
        if params.variant is Variant.MULTI_FILE:
            return _reconstruct_multifile(plan, values, correct)
        return _reconstruct_standard(plan, values, correct)
    except rs.CodingError as exc:
        raise DecodingFailure(str(exc)) from exc
    except NoSolution as exc:
        raise DecodingFailure(str(exc)) from exc


def reconstruct(
    plan: QueryPlan, transcript: Transcript, code: StorageCode | None = None
) -> dict[int, np.ndarray]:
    """Recover the desired file(s) exactly, or raise a decode error.

    The adversary must respect the plan's bounds: at most S absent
    servers for the robust variant (none elsewhere), at most B Byzantine
    servers for the Byzantine variant.  Inconsistencies beyond those
    bounds surface as DecodingFailure rather than silent corruption
    wherever redundancy allows detection.
    """
    files, _ = _run_pipeline(plan, transcript, code)
    return files


def recovered_atoms(
    plan: QueryPlan, transcript: Transcript, code: StorageCode | None = None
) -> RecoveredAtoms:
    """Decode a session and report every atom value with its provenance."""
    _, record = _run_pipeline(plan, transcript, code)
    return record
