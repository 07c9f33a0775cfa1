"""Workloads of the coded-pir benchmark, with the exactness gate on every operation.

A workload has a set-up (timed on its own, repeated by the runner) and a
job, the unit the closed loop repeats; ``cycle`` jobs in a row make up
its full mix, the window over which the runner takes a rate.  Every job
input derives from the workload seed and the job index alone, so
re-running job ``i`` replays exactly the same plans, databases and
faults.  The library only ever receives generated ``SchemeParams``,
``Database`` and ``Adversary`` values; the databases are drawn here with
numpy, not by the library.

Each operation (build, retrieval, audit, JSON round trip, family search)
is checked against a pinned expectation.  A miss, including an
operation that raises, is recorded and counted; it never stops the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from time import perf_counter

import numpy as np

import coded_pir as cp

PENTAGON_SETS = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
PENTAGON_TRIPLES = ((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4))

# Dense query vectors plus dense masks above this many bytes are refused
# before any plan is built, so that a resized workload cannot exhaust the
# machine's memory.
MEMORY_BUDGET_BYTES = 4 * 1024**3


class MemoryBudgetExceeded(Exception):
    """A workload's dense plan arrays would not fit the memory budget."""


@dataclass(frozen=True)
class Instance:
    """One parameter set with its pinned rate, view rank and row count."""

    name: str
    kwargs: dict
    rate: Fraction
    rank: int
    l_rows: int

    def params(self, seed: int) -> cp.SchemeParams:
        return cp.SchemeParams(seed=seed, **self.kwargs)


def _pattern_kwargs() -> dict:
    return dict(
        variant="pattern", n_servers=5, code_dim=3, n_files=2, desired=(0,),
        pattern=cp.CollusionPattern(PENTAGON_SETS),
        family=cp.BlockFamily(PENTAGON_TRIPLES, 3),
    )


# The five acceptance instances of the test suite, with the values it pins.
REFERENCE = (
    Instance("prototype", dict(variant="prototype", n_servers=4, code_dim=2, n_files=3,
                               desired=(0,), collusion_size=2), Fraction(36, 91), 180, 216),
    Instance("robust", dict(variant="robust", n_servers=6, code_dim=2, n_files=2,
                            desired=(0,), collusion_size=2, s_robust=1), Fraction(8, 19), 90, 100),
    Instance("byzantine", dict(variant="byzantine", n_servers=8, code_dim=2, n_files=2,
                               desired=(0,), collusion_size=2, b_byzantine=1),
             Fraction(7, 27), 182, 196),
    Instance("multifile", dict(variant="multifile", n_servers=4, code_dim=2, n_files=3,
                               desired=(0, 1), collusion_size=2), Fraction(12, 17), 30, 36),
    Instance("pattern", _pattern_kwargs(), Fraction(5, 9), 20, 25),
)
BY_NAME = {inst.name: inst for inst in REFERENCE}

# Prototype N=4, K=2, T=1, M=7: L = 6 * 2**6 = 384 rows and 762 queries,
# rate 1 / (1 + 1/2 + ... + 1/2**6) = 64/127, every single-server view of
# rank L/2.
SCALE = Instance("scale", dict(variant="prototype", n_servers=4, code_dim=2, n_files=7,
                               desired=(0,), collusion_size=1), Fraction(64, 127), 192, 384)


def sub_seed(seed: int, *tags) -> int:
    """64-bit seed for one named input of the workload seed."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def make_database(params: cp.SchemeParams, l_rows: int, seed: int) -> cp.Database:
    """Uniform random files drawn with numpy, independent of the library's generator."""
    rng = np.random.default_rng(seed)
    files = tuple(
        rng.integers(0, params.modulus, size=(l_rows, params.code_dim), dtype=np.int64)
        for _ in range(params.n_files)
    )
    return cp.Database(files=files, p=params.modulus)


def canonical_adversary(params: cp.SchemeParams, seed: int) -> cp.Adversary:
    """The first S servers absent, or the first B servers lying, as the closed form assumes."""
    if params.variant is cp.Variant.ROBUST:
        return cp.Adversary(robust_set=tuple(range(params.s_robust)))
    if params.variant is cp.Variant.BYZANTINE:
        return cp.Adversary(byzantine_set=tuple(range(params.b_byzantine)), seed=seed)
    return cp.Adversary()


def dense_bytes(params: cp.SchemeParams) -> int:
    """Bytes of the dense int64 query vectors and masks a plan would hold.

    Computed from the parameters alone (queries x M*L x 8 plus M*L*L x 8),
    before anything is built.  alpha and beta come from the library's
    ``compute_alpha_beta``.  The ratio inputs x, y and the block
    multiplicities mirror the private ``plans._ratio_inputs`` and
    ``plans._standard_blocks`` on purpose: the guard must neither build a
    plan nor list its blocks, nor break when a private helper is renamed.
    ``test_dense_bytes_matches_built_plan`` keeps the two in step.
    """
    n, k, t, m = params.n_servers, params.code_dim, params.collusion_size, params.n_files
    if params.variant is cp.Variant.PATTERN:
        b = params.family.b
        x, y = b, cp.family_eval(params.pattern, params.family).delta
    else:
        b = comb(n, k)
        y = comb(n, k) - comb(n - t, k)
        x = {
            cp.Variant.ROBUST: comb(n - params.s_robust, k),
            cp.Variant.BYZANTINE: 2 * comb(n - params.b_byzantine, k) - comb(n, k),
        }.get(params.variant, b)
    ab = cp.compute_alpha_beta(x, y)
    alpha, beta = ab.alpha, ab.beta
    if params.variant is cp.Variant.MULTI_FILE:
        l_rows = ab.total * b
        blocks = m * alpha + beta * params.p_desired
    else:
        l_rows = x * ab.total ** (m - 1)
        blocks = sum(comb(m, d) * alpha ** (m - d) * beta ** (d - 1) for d in range(1, m + 1))
    return blocks * b * m * l_rows * 8 + m * l_rows * l_rows * 8


def check_memory(instances) -> None:
    for inst in instances:
        need = dense_bytes(inst.params(0))
        if need > MEMORY_BUDGET_BYTES:
            raise MemoryBudgetExceeded(
                f"{inst.name}: dense plan arrays need {need / 2**30:.1f} GiB, "
                f"above the {MEMORY_BUDGET_BYTES / 2**30:.0f} GiB budget"
            )


@dataclass
class JobResult:
    """Timings, checked outcomes and size counts of one job (or one set-up)."""

    times: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    outcomes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    tracer: object = None

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    def record(self, what: str, problems) -> None:
        """One operation done; any problem makes it a miss."""
        self.outcomes.append((what, tuple(problems)))
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def _op(res: JobResult, what: str, fn, *args):
    """Run one checked operation; return its value, or None if it raised."""
    try:
        value, problems = fn(res, *args)
    except Exception as exc:  # a raising operation is a miss, never a crash
        value, problems = None, [f"raised {type(exc).__name__}: {exc}"]
    res.record(what, problems)
    return value


def _pin(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what} {got} != pinned {want}"]


def _build(res: JobResult, inst: Instance, seed: int):
    params = inst.params(seed)
    t0 = perf_counter()
    plan = cp.build_plan(params)
    res.times["build"] += perf_counter() - t0
    res.counts["queries"] += len(plan.queries)
    # Plans that derive query vectors on demand hold none: they count 0 bytes.
    res.counts["query_vector_bytes"] += sum(
        v.nbytes for q in plan.queries if (v := getattr(q, "vector", None)) is not None
    )
    return plan, _pin("L", plan.l_rows, inst.l_rows)


def _retrieve(res: JobResult, plan, db: cp.Database, adversary: cp.Adversary,
              expect_failure: bool, rate: Fraction | None):
    """Session plus decode; exact files, or DecodingFailure where expected."""
    problems = []
    t0 = perf_counter()
    transcript = cp.run_session(plan, db, adversary=adversary)
    try:
        files = cp.reconstruct(plan, transcript)
    except cp.DecodingFailure:
        files = None
    if files is None:
        if not expect_failure:
            problems.append("DecodingFailure where exact recovery was expected")
    elif expect_failure:
        problems.append("decoded although DecodingFailure was expected")
    else:
        for f in plan.params.desired:
            if not np.array_equal(files[f], db.files[f]):
                problems.append(f"file {f} not bit-exact")
    res.times["retrieve"] += perf_counter() - t0
    res.counts["downloaded_symbols"] += transcript.downloaded_symbols
    res.counts["expected_failures"] += files is None and expect_failure
    if files is not None and not expect_failure:
        res.tracer.decoded(plan, transcript)
    if rate is not None:
        achieved = cp.achieved_rate(plan, transcript)
        closed = cp.closed_form_rate(plan.params)
        if not achieved == closed == rate:
            problems.append(f"rate achieved {achieved}, closed form {closed}, pinned {rate}")
    return files, problems


def _audit(res: JobResult, plan, rank: int):
    t0 = perf_counter()
    audits = cp.full_privacy_sweep(plan)
    res.times["audit"] += perf_counter() - t0
    problems = [
        f"view {a.collusion_set}: ranks {a.per_file_rank}, expected {a.expected_rank}, "
        f"pinned {rank}"
        for a in audits
        if not (a.passed and a.expected_rank == rank and set(a.per_file_rank) == {rank})
    ]
    if not audits:
        problems.append("no collusion set audited")
    return audits, problems


def _json_round_trip(res: JobResult, plan):
    js = cp.plan_to_json(plan)
    res.counts["json_bytes"] += len(js)
    again = cp.plan_to_json(cp.plan_from_json(js))
    return js, [] if again == js else ["plan JSON does not round-trip byte for byte"]


def _optimize_pentagon(res: JobResult):
    family, ev = cp.optimize_family(cp.CollusionPattern(PENTAGON_SETS), 3, 5)
    problems = _pin("ratio", ev.ratio, Fraction(4, 5))
    problems += _pin("family", set(family.blocks), set(PENTAGON_TRIPLES))
    return family, problems


def run_instance(res: JobResult, tracer, inst: Instance, seed: int, audit: bool = True) -> None:
    """Build, retrieve, audit and round-trip one instance at one plan seed."""
    with tracer.span(f"bench.{inst.name}"):
        plan = _op(res, f"{inst.name} build", _build, inst, seed)
        if plan is None:
            for what in ("retrieve", "audit", "json") if audit else ("retrieve",):
                res.record(f"{inst.name} {what}", ["not run: build failed"])
            return
        params = plan.params
        db = make_database(params, plan.l_rows, sub_seed(seed, "database"))
        adversary = canonical_adversary(params, sub_seed(seed, "adversary"))
        _op(res, f"{inst.name} retrieve", _retrieve, plan, db, adversary, False, inst.rate)
        if audit:
            _op(res, f"{inst.name} audit", _audit, plan, inst.rank)
            _op(res, f"{inst.name} json", _json_round_trip, plan)


class Reference:
    """One round = the five acceptance instances at one fresh plan seed, plus
    the pentagon family search."""

    name = "reference"
    instances = REFERENCE
    cycle = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tracer) -> JobResult:
        res = JobResult(tracer=tracer)
        for inst in REFERENCE:
            run_instance(res, tracer, inst, sub_seed(self.seed, "warm-up"), audit=False)
        return res

    def job(self, index: int, tracer) -> JobResult:
        res = JobResult(tracer=tracer)
        plan_seed = sub_seed(self.seed, "round", index)
        for inst in REFERENCE:
            run_instance(res, tracer, inst, plan_seed)
        with tracer.span("bench.optimize_family"):
            _op(res, "pentagon optimize_family", _optimize_pentagon)
        return res


class Scale:
    """One job = build, retrieve, audit and round-trip the M=7 prototype plan."""

    name = "scale"
    instances = (SCALE,)
    cycle = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tracer) -> JobResult:
        res = JobResult(tracer=tracer)
        run_instance(res, tracer, BY_NAME["prototype"], sub_seed(self.seed, "warm-up"),
                     audit=False)
        return res

    def job(self, index: int, tracer) -> JobResult:
        res = JobResult(tracer=tracer)
        run_instance(res, tracer, SCALE, sub_seed(self.seed, "job", index))
        return res


CORRUPTION_SEEDS = 3


class FaultSweep:
    """One job = one retrieval on a warm robust or byzantine plan, cycling
    through the fault placements whose outcome the redundancy determines."""

    name = "fault-sweep"
    instances = (BY_NAME["robust"], BY_NAME["byzantine"])

    def __init__(self, seed: int):
        self.seed = seed
        self.plans: dict = {}
        self.dbs: dict = {}
        self.placements = []
        for liar in range(8):
            for c in range(CORRUPTION_SEEDS):
                adv = cp.Adversary(byzantine_set=(liar,), seed=sub_seed(seed, "liar", liar, c))
                self.placements.append(("byzantine-1-liar", "byzantine", adv, False))
        for pair in combinations(range(8), 2):
            adv = cp.Adversary(byzantine_set=pair, seed=sub_seed(seed, "pair", pair))
            self.placements.append(("byzantine-2-liars", "byzantine", adv, True))
        for absent in range(6):
            adv = cp.Adversary(robust_set=(absent,))
            self.placements.append(("robust-1-absent", "robust", adv, False))
        for liar in range(6):
            adv = cp.Adversary(byzantine_set=(liar,), seed=sub_seed(seed, "robust-liar", liar))
            self.placements.append(("robust-1-liar", "robust", adv, True))
        self.cycle = len(self.placements)

    def setup(self, tracer) -> JobResult:
        """Build and audit both plans, then run one warm-up retrieval on
        each, so that every job runs on warm plans."""
        res = JobResult(tracer=tracer)
        for inst in self.instances:
            with tracer.span(f"bench.{inst.name}"):
                seed = sub_seed(self.seed, "plan", inst.name)
                plan = _op(res, f"{inst.name} build", _build, inst, seed)
                if plan is None:
                    continue
                _op(res, f"{inst.name} audit", _audit, plan, inst.rank)
                self.plans[inst.name] = plan
                db = make_database(plan.params, plan.l_rows, sub_seed(seed, "database"))
                self.dbs[inst.name] = db
                adversary = canonical_adversary(plan.params, sub_seed(seed, "adversary"))
                _op(res, f"{inst.name} warm-up retrieve", _retrieve, plan, db, adversary,
                    False, inst.rate)
        return res

    def job(self, index: int, tracer) -> JobResult:
        """Placements run in a fresh seeded order each cycle, so that any
        prefix of the sequence holds a representative mix."""
        cycle, pos = divmod(index, len(self.placements))
        order = list(range(len(self.placements)))
        random.Random(sub_seed(self.seed, "cycle", cycle)).shuffle(order)
        kind, which, adversary, expect_failure = self.placements[order[pos]]
        res = JobResult(tracer=tracer)
        with tracer.span(f"bench.{kind}"):
            if which not in self.plans:
                res.record(kind, ["not run: set-up failed"])
            else:
                _op(res, kind, _retrieve, self.plans[which], self.dbs[which], adversary,
                    expect_failure, None)
        return res


WORKLOADS = {w.name: w for w in (Reference, FaultSweep, Scale)}


class NoTrace:
    """Stand-in for the tracer in untraced runs."""

    def span(self, name):
        return contextlib.nullcontext()

    def decoded(self, plan, transcript) -> None:
        pass
