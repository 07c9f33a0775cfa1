"""User-side decoding of retrieval sessions.

Decoding follows a fixed order: (1) solve every shared query from the K
responses of its symbol's servers, all symbols in one batched product
with the layout's per-symbol inverses; (2) per group, rebuild the
interference codeword from the pure blocks (completing erasures or
correcting errors as the variant demands); (3) subtract interference
from mixed blocks; (4) per chunk of the desired file, recover the mask
rows behind its atoms; (5) undo the desired files' masks, solving
through the row operations that tested each mask's rank (no mask is
inverted).  Groups, blocks and chunks are read from the plan's layout,
and everything these steps invert is built once per plan: the symbols'
storage inverses on the layout, the interpolation bases on its codes,
and the mask and mixing-matrix factorizations on the plan; a built plan
already holds its mask factorizations.  Words on one code with the same
known positions (the groups' interference words, the desired chunks,
multifile's undesired files) are decoded in one call.  Wherever more
values are available than needed, consistency is verified and any
mismatch surfaces as DecodingFailure.

:func:`reconstruct` runs the steps alone; :func:`recovered_atoms` runs
the same steps and records every atom value they produce, with its
provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rs
from .gf import NoSolution, _mat_mul_reduced
from .plans import Chunk, QueryPlan, Variant
from .storage import Transcript


class DecodeError(Exception):
    pass


class DecodingFailure(DecodeError):
    pass


class MissingResponses(DecodeError):
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

    def add_word(self, f: int, first: int, word: np.ndarray, known: dict[int, np.ndarray]) -> None:
        """Add a decoded word's rows as atoms first, first + 1, ... of file f, flagged."""
        for t, row in enumerate(word):
            if t not in known:
                flag = FLAG_ERASURE
            else:
                flag = FLAG_ERROR if np.any(row != known[t]) else FLAG_DIRECT
            self.add(f, first + t, row, flag)


def _query_values(plan: QueryPlan, transcript: Transcript) -> list[np.ndarray | None]:
    """Value of every shared query, all symbols in one product; None = unretrievable."""
    layout, p, k = plan.layout, plan.params.modulus, plan.params.code_dim
    b, symbols = layout.array.n_symbols, layout.array.symbols
    # slot[s, n]: where server n sits in the subset of symbol s.
    slot = np.zeros((b, plan.params.n_servers), dtype=np.int64)
    for s, subset in enumerate(symbols):
        slot[s, list(subset)] = range(len(subset))
    # resp[q, i]: the response of the i-th server of its symbol to query q.
    resp = np.zeros((len(layout.blocks) * b, k), dtype=np.int64)
    for n, answers in enumerate(transcript.responses):
        if answers is not None and len(answers):
            qids = layout.server_queries[n]
            resp[qids, slot[qids % b, n]] = answers
    resp %= p
    answered = [all(transcript.responses[n] is not None for n in subset) for subset in symbols]
    present = np.flatnonzero(answered)
    by_symbol = resp.reshape(-1, b, k)[:, present].transpose(1, 2, 0)
    solved = _mat_mul_reduced(layout.symbol_inverses[present], by_symbol, p)
    table = np.zeros((len(layout.blocks), b, k), dtype=np.int64)
    table[:, present] = solved.transpose(2, 0, 1)
    values: list[np.ndarray | None] = list(table.reshape(-1, k))
    for s in np.flatnonzero(np.logical_not(answered)):
        values[s::b] = [None] * len(layout.blocks)
    return values


def _group_interference(
    plan: QueryPlan, values: list[np.ndarray | None], correct: bool, record: RecoveredAtoms | None
) -> dict[int, np.ndarray]:
    """Interference value of every mixed-block query, group by group.

    Pure-block query values of a group lie on one codeword of the big
    code (positions beta*b onward); the codeword, and with it the mixed
    positions 0..beta*b-1, is decoded from them.  Groups mixing a single
    undesired file yield that file's atoms individually and are recorded.
    """
    layout = plan.layout
    b, code = layout.array.n_symbols, layout.big_code
    knowns: list[dict[int, np.ndarray]] = []
    for group in layout.groups:
        known: dict[int, np.ndarray] = {}
        for i, blk_id in enumerate(group.pure_blocks):
            for s in range(b):
                if (v := values[blk_id * b + s]) is not None:
                    known[layout.ab.beta * b + i * b + s] = v
        knowns.append(known)
    interference: dict[int, np.ndarray] = {}
    messages = _recover_batch(code, knowns, correct)
    for group, known, message in zip(layout.groups, knowns, messages):
        full = rs.encode(code, message)
        for j, blk_id in enumerate(group.mixed_blocks):
            for s in range(b):
                interference[blk_id * b + s] = full[j * b + s]
        if record is not None and len(group.base_label) == 1:
            ((f, chunk),) = group.chunks.items()
            record.add_word(f, chunk.atoms[0], full, known)
    return interference


def _recover_batch(
    code: rs.RsCode, words: list[dict[int, np.ndarray]], correct: bool
) -> list[np.ndarray]:
    """Message of every word, each given by its known positions.

    Words with the same known positions are decoded side by side as one
    interleaved word, so a liar's positions are located once for all of
    them.  On DecodingFailure such words are decoded one by one again,
    so that the error names the failing column within its own word.
    """
    batches: dict[tuple[int, ...], list[int]] = {}
    for i, known in enumerate(words):
        batches.setdefault(tuple(known), []).append(i)
    messages: list[np.ndarray] = [np.empty(0)] * len(words)
    for positions, batch in batches.items():
        # one row per known position, the batch's words side by side
        stacked = np.hstack([list(words[i].values()) for i in batch]) if positions else ()
        try:
            message = rs.recover_message(code, dict(zip(positions, stacked)), correct)
        except rs.DecodingFailure:
            if len(batch) > 1:
                for i in batch:
                    rs.recover_message(code, words[i], correct)
            raise
        for i, part in zip(batch, np.split(message, len(batch), axis=1)):
            messages[i] = part
    return messages


def _reconstruct_standard(
    plan: QueryPlan, values: list[np.ndarray | None], correct: bool, record: RecoveredAtoms | None
) -> dict[int, np.ndarray]:
    layout, p = plan.layout, plan.params.modulus
    des = plan.params.desired[0]
    b = layout.array.n_symbols
    interference = _group_interference(plan, values, correct, record)

    rows_value = np.zeros((layout.l_rows, plan.params.code_dim), dtype=np.int64)
    coded: list[tuple[Chunk, dict[int, np.ndarray]]] = []  # all on one code
    # One desired chunk per block the desired file labels, in block order.
    desired_blocks = [blk for blk in layout.blocks if des in blk.atom_start]
    for blk, chunk in zip(desired_blocks, layout.chunks[des]):
        vals: dict[int, np.ndarray] = {}
        for s in range(b):
            qid = blk.index * b + s
            if (v := values[qid]) is not None:
                vals[s] = v if len(blk.label) == 1 else (v - interference[qid]) % p
        if chunk.code is not None:
            coded.append((chunk, vals))
            continue
        for s, v in vals.items():  # the atoms are the mask rows themselves
            rows_value[chunk.rows[0] + s] = v
            if record is not None:
                record.add(des, chunk.atoms[0] + s, v, FLAG_DIRECT)
    if coded:
        code = coded[0][0].code
        for (chunk, vals), message in zip(coded, _recover_batch(code, [v for _, v in coded], correct)):
            rows_value[slice(*chunk.rows)] = message
            if record is not None:
                record.add_word(des, chunk.atoms[0], rs.encode(code, message), vals)
    return {des: plan.mask_factors[des].solve(rows_value)}


def _reconstruct_multifile(
    plan: QueryPlan, values: list[np.ndarray | None], correct: bool, record: RecoveredAtoms | None
) -> dict[int, np.ndarray]:
    layout, p, k = plan.layout, plan.params.modulus, plan.params.code_dim
    b, ab = layout.array.n_symbols, layout.ab
    desired = list(plan.params.desired)
    undesired = [f for f in range(plan.params.n_files) if f not in plan.params.desired]
    assert plan.mix_matrix is not None

    atom_vals = {f: np.zeros((layout.l_rows, k), dtype=np.int64) for f in range(plan.params.n_files)}
    sigma: dict[tuple[int, int], int] = {}
    for blk in layout.blocks:
        if blk.mix_row is not None:
            sigma[(blk.mix_round, blk.mix_row)] = blk.index
            continue
        ((f, start),) = blk.atom_start.items()
        for s in range(b):
            atom_vals[f][start + s] = values[blk.index * b + s]
            if record is not None:
                record.add(f, start + s, values[blk.index * b + s], FLAG_DIRECT)

    # Undesired files ride the big code: singleton positions determine the
    # rest, at the same positions for every file, so all decode in one batch.
    shared, code = ab.beta * b, layout.big_code
    knowns = [{t: atom_vals[f][t] for t in range(shared, code.n)} for f in undesired]
    for f, known, message in zip(undesired, knowns, _recover_batch(code, knowns, correct)):
        full = rs.encode(code, message)
        atom_vals[f][:shared] = full[:shared]
        if record is not None:
            record.add_word(f, 0, full[:shared], known)

    h = plan.mix_matrix
    if plan.mix_factors.rank < len(desired):
        raise DecodingFailure("mixing matrix is singular on the desired columns")
    for lam in range(ab.beta):
        rhs = np.empty((len(desired), b, k), dtype=np.int64)
        for row in range(len(desired)):
            blk = layout.blocks[sigma[(lam, row)]]
            for s in range(b):
                acc = values[blk.index * b + s].copy()
                t = lam * b + s
                for f in undesired:
                    acc = (acc - int(h[row, f]) * atom_vals[f][t]) % p
                rhs[row, s] = acc
        solved = plan.mix_factors.solve(rhs.reshape(len(desired), b * k)).reshape(len(desired), b, k)
        for i, f in enumerate(desired):
            atom_vals[f][lam * b : (lam + 1) * b] = solved[i]
            if record is not None:
                for s in range(b):
                    record.add(f, lam * b + s, solved[i, s], FLAG_DIRECT)

    return {f: plan.mask_factors[f].solve(atom_vals[f]) for f in desired}


def _run_pipeline(
    plan: QueryPlan, transcript: Transcript, record: RecoveredAtoms | None
) -> dict[int, np.ndarray]:
    params = plan.params
    absent = [n for n, r in enumerate(transcript.responses) if r is None]
    if absent and params.variant is not Variant.ROBUST:
        raise MissingResponses(
            f"servers {absent} are absent; only the robust variant tolerates erasures"
        )
    values = _query_values(plan, transcript)
    # Only Byzantine plans reserve redundancy for correcting errors; the
    # others spend it on erasures or on detecting wrong responses.
    correct = params.variant is Variant.BYZANTINE
    try:
        if params.variant is Variant.MULTI_FILE:
            return _reconstruct_multifile(plan, values, correct, record)
        return _reconstruct_standard(plan, values, correct, record)
    except (rs.CodingError, NoSolution) as exc:
        raise DecodingFailure(str(exc)) from exc


def reconstruct(plan: QueryPlan, transcript: Transcript) -> dict[int, np.ndarray]:
    """Recover the desired file(s) exactly, or raise a decode error.

    The adversary must respect the plan's bounds: at most S absent
    servers for the robust variant (none elsewhere), at most B Byzantine
    servers for the Byzantine variant.  Inconsistencies beyond those
    bounds surface as DecodingFailure rather than silent corruption
    wherever redundancy allows detection.
    """
    return _run_pipeline(plan, transcript, None)


def recovered_atoms(plan: QueryPlan, transcript: Transcript) -> RecoveredAtoms:
    """Decode a session and report every atom value with its provenance."""
    record = RecoveredAtoms(values={}, flags={})
    _run_pipeline(plan, transcript, record)
    return record
