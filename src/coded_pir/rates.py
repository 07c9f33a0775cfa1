"""Privacy rank audits, exact rate accounting, and closed-form rates.

Every rate and bound is an exact ``fractions.Fraction``; nothing here
touches floating point.  The privacy audit is rank-level: for a given
set of colluding servers it takes, per file, the coefficient vectors of
every atom those servers see, and passes iff all files show the same
rank and that rank matches the construction's predicted view dimension.
Equal ranks are the machine-checkable face of the schemes' privacy
argument; distributional indistinguishability beyond rank is out of
scope and documented as such.

The rank is counted from the plan's layout, with no elimination, for
every collusion set in one array pass (``_view_ranks``).  A file's atom
coefficients are ``blockdiag(chunk generators) @ (disjoint rows of its
mask)``, one chunk after another as ``plan.layout.chunks`` lists them: a
small-code chunk per desired block for the robust/Byzantine desired
file, a big-code chunk per group (per file in multifile) for an
undesired file, and the mask rows themselves for the desired files of
the other variants.  So the visible rows have rank sum over chunks of
min(visible atoms in the chunk, chunk.k), given two premises:

- every mask is invertible: ``sample_invertible`` draws it so at build
  time, keeping only draws whose factorization has full rank, and
  ``plans.validate_plan`` re-checks it for a loaded plan;
- every chunk's atoms are its MDS generator times its mask rows: a plan
  stores no atoms, only its masks, and a session answers each chunk
  through its generator applied to the mask's projection of the file
  (``storage.run_session``; Reed-Solomon generators are MDS).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .patterns import family_eval
from .plans import PreconditionViolated, QueryPlan, SchemeParams, Variant
from .storage import Transcript


@dataclass(frozen=True)
class PrivacyAudit:
    """Rank check for one collusion set; passes iff ranks agree and match."""

    collusion_set: tuple[int, ...]
    per_file_rank: tuple[int, ...]
    expected_rank: int
    passed: bool


@dataclass(frozen=True)
class RateReport:
    achieved: Fraction
    closed_form: Fraction
    match: bool


@dataclass(frozen=True)
class NaiveComparison:
    adapted: Fraction
    naive: Fraction
    better: bool


def inverse_geometric_sum(ratio: Fraction, m: int) -> Fraction:
    """1 / (1 + ratio + ratio**2 + ... + ratio**(m-1)), exactly."""
    total = sum((ratio**i for i in range(m)), Fraction(0))
    return 1 / total


def closed_form_rate(params: SchemeParams) -> Fraction:
    """The variant's closed-form rate at these parameters."""
    params.validate()
    n, k, t, m = params.n_servers, params.code_dim, params.collusion_size, params.n_files
    if params.variant is Variant.PATTERN:
        ev = family_eval(params.pattern, params.family)
        return inverse_geometric_sum(ev.ratio, m)
    cn = comb(n, k)
    hit = cn - comb(n - t, k)
    if params.variant is Variant.PROTOTYPE:
        return inverse_geometric_sum(Fraction(hit, cn), m)
    if params.variant is Variant.ROBUST:
        s = params.s_robust
        prefactor = Fraction(comb(n - s - 1, k - 1), comb(n - 1, k - 1))
        return prefactor * inverse_geometric_sum(Fraction(hit, comb(n - s, k)), m)
    if params.variant is Variant.BYZANTINE:
        spare = 2 * comb(n - params.b_byzantine, k) - cn
        return Fraction(spare, cn) * inverse_geometric_sum(Fraction(hit, spare), m)
    # Multifile: P files at once.
    p_files = params.p_desired
    return Fraction(p_files * cn, m * hit + p_files * comb(n - t, k))


def achieved_rate(plan: QueryPlan, transcript: Transcript) -> Fraction:
    """Retrieved field elements over downloaded field elements."""
    retrieved = plan.params.p_desired * plan.l_rows * plan.params.code_dim
    return Fraction(retrieved, transcript.downloaded_symbols)


def rate_report(plan: QueryPlan, transcript: Transcript) -> RateReport:
    achieved = achieved_rate(plan, transcript)
    closed = closed_form_rate(plan.params)
    return RateReport(achieved=achieved, closed_form=closed, match=achieved == closed)


def _view_counts(plan: QueryPlan) -> tuple[np.ndarray, list[tuple[np.ndarray, list[int]]]]:
    """The server x symbol incidence and, per file, a symbols x chunks count
    of the distinct atoms each symbol opens in each chunk, with the chunks' k.

    The P mixed blocks of a multifile round share their atom starts; a
    shared atom counts once.
    """
    layout, b = plan.layout, plan.layout.array.n_symbols
    incidence = np.array([[n in sym for sym in layout.array.symbols] for n in range(plan.params.n_servers)], np.int64)
    per_file = []
    for f, chunks in enumerate(layout.chunks):
        starts = np.array(sorted({blk.atom_start[f] for blk in layout.blocks if f in blk.atom_start}))
        chunk_of = np.searchsorted([c.atoms[0] for c in chunks], starts[:, None] + np.arange(b), "right") - 1
        counts = np.bincount((np.arange(b) * len(chunks) + chunk_of).ravel(), minlength=b * len(chunks))
        per_file.append((counts.reshape(b, len(chunks)), [c.k for c in chunks]))
    return incidence, per_file


def _view_ranks(plan: QueryPlan, views) -> list[PrivacyAudit]:
    """The audit of each view, a sorted tuple of servers, in one counting pass.

    A view sees the symbols its servers hold, one product of the views'
    membership with the incidence of ``_view_counts``; a file's rank in
    it is ``min(visible @ counts, k)`` summed over its chunks (module
    docstring), and each visible symbol adds the same predicted dimension.
    """
    incidence, per_file = _view_counts(plan)
    member = np.zeros((len(views), plan.params.n_servers), dtype=np.int64)
    rows = np.repeat(np.arange(len(views)), [len(v) for v in views])
    member[rows, np.array([n for v in views for n in v], np.int64)] = 1
    visible = (member @ incidence > 0).astype(np.int64)
    ranks = np.stack([np.minimum(visible @ counts, ks).sum(axis=1) for counts, ks in per_file], axis=1)
    params = plan.params
    per_symbol = plan.layout.ab.total ** (1 if params.variant is Variant.MULTI_FILE else params.n_files - 1)
    expected = per_symbol * visible.sum(axis=1)
    passed = (ranks == expected[:, None]).all(axis=1)
    return [
        PrivacyAudit(collusion_set=view, per_file_rank=tuple(row), expected_rank=dim, passed=ok)
        for view, row, dim, ok in zip(views, ranks.tolist(), expected.tolist(), passed.tolist())
    ]


def collusion_view_ranks(plan: QueryPlan, servers) -> PrivacyAudit:
    """Per-file rank of the atom coefficients visible to these servers, counted by ``_view_ranks``."""
    view = tuple(sorted(set(int(n) for n in servers)))
    if not view:
        raise ValueError("collusion set must be nonempty")
    if not 0 <= view[0] <= view[-1] < plan.params.n_servers:
        raise ValueError(f"collusion set {view} outside range(N={plan.params.n_servers})")
    return _view_ranks(plan, [view])[0]


def full_privacy_sweep(plan: QueryPlan) -> list[PrivacyAudit]:
    """One audit per maximal collusion set of the plan's variant, in one counting pass."""
    return _view_ranks(plan, plan.maximal_collusion_sets())


def multifile_capacity_bound(
    n_servers: int, k_or_t: int, n_files: int, p_files: int, case: str = "T=1"
) -> Fraction:
    """Upper bound on the multi-retrieval capacity in a degenerate regime.

    ``case`` names which of the two collusion/storage parameters is 1;
    ``k_or_t`` is the value of the other one (K when case is "T=1", T
    when case is "K=1"; the bound has the same shape in both).  For
    n_files <= 2 * p_files this reduces to
    (1 + k_or_t * (M - P) / (P * N))**-1.
    """
    if case not in ("K=1", "T=1"):
        raise ValueError(f'case must be "K=1" or "T=1", got {case!r}')
    if p_files < 1 or n_files < p_files:
        raise ValueError(f"need 1 <= P <= M, got P={p_files}, M={n_files}")
    q = Fraction(k_or_t, n_servers)
    whole = n_files // p_files
    frac = Fraction(n_files, p_files) - whole
    denom = sum((q**i for i in range(whole)), Fraction(0)) + frac * q**whole
    return 1 / denom


def naive_comparison(params: SchemeParams) -> NaiveComparison:
    """Adapted multi-retrieval rate vs running one scheme per file.

    The naive route runs P independent single-file schemes, crediting
    the side retrievals of the other desired files each run yields for
    free.  ``better`` is a strict comparison.
    """
    if params.variant is not Variant.MULTI_FILE:
        raise PreconditionViolated("naive comparison applies to the multifile variant")
    params.validate()
    n, k, t, m = params.n_servers, params.code_dim, params.collusion_size, params.n_files
    r = 1 - Fraction(comb(n - t, k), comb(n, k))
    naive = (1 + r ** (m - 1) * params.p_desired - r ** (m - 1)) * inverse_geometric_sum(r, m)
    adapted = closed_form_rate(params)
    return NaiveComparison(adapted=adapted, naive=naive, better=adapted > naive)


def _audit_dict(a: PrivacyAudit) -> dict:
    return {
        "collusion_set": list(a.collusion_set),
        "per_file_rank": list(a.per_file_rank),
        "expected_rank": a.expected_rank,
        "pass": a.passed,
    }


def audit_report(plan: QueryPlan, outside=None) -> dict:
    """JSON-ready report of the full privacy sweep.

    ``outside``, sorted server tuples that no collusion set covers, adds
    their audits, counted in one more pass, as ``outside_pattern``; they
    do not count towards ``all_pass``.
    """
    audits = full_privacy_sweep(plan)
    from .plans import params_to_dict

    doc = {
        "schema": "coded-pir-audit/1",
        "params": params_to_dict(plan.params),
        "audits": [_audit_dict(a) for a in audits],
        "all_pass": all(a.passed for a in audits),
    }
    if outside is not None:
        doc["outside_pattern"] = [_audit_dict(a) for a in _view_ranks(plan, outside)]
    return doc
