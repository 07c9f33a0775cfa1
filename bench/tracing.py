"""Spans around the public calls of each coded_pir layer, and the per-layer metrics.

The tracer wraps every public function defined in the layer modules and
rebinds the wrapper wherever a ``coded_pir`` module holds the original,
so calls between modules and inside a module are both seen.  Spans
(name, parent, start, end, counters) stay in memory until the run ends.
Counters come from argument shapes and return values (None when the call
raised), computed after the span has closed so that they do not add to
its duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("gf", "rs", "plans", "storage", "decode", "rates", "patterns")

# The pipeline calls that define a stage; spans below them belong to it.
STAGES = {
    "plans.build_plan": "build",
    "storage.run_session": "session",
    "decode.reconstruct": "decode",
    "rates.full_privacy_sweep": "audit",
}

ELIMINATIONS = ("gf.row_reduce", "gf.mat_rank")
RS_DECODERS = ("rs.error_correct", "rs.erasure_complete", "rs.recover_message",
               "rs.message_from_codeword")

# Callables the per-layer metrics read; any that no longer exists is
# reported as absent and its metrics read 0.
REQUIRED = (
    "plans.build_plan", "plans.plan_to_json", "plans.plan_from_json",
    "gf.mat_mul", "gf.sample_invertible", *ELIMINATIONS, *RS_DECODERS,
    "storage.run_session", "decode.reconstruct", "decode.recovered_atoms",
    "rates.full_privacy_sweep", "patterns.optimize_family",
)


def _mul_ops(args, result):
    a, b = np.shape(args[0]), np.shape(args[1])
    return {"ops": int(np.prod(a[:-1], dtype=np.int64)) * a[-1] * int(np.prod(b[1:], dtype=np.int64))}


def _elim_ops(args, result):
    rows, cols = np.shape(args[0]) if np.ndim(args[0]) == 2 else (0, 0)
    rank = result if isinstance(result, int) else len(result[1]) if result else 0
    return {"ops": rows * cols * min(rows, cols), "rows": rows, "rank": rank}


def _columns(args, result):
    value = args[1]
    if isinstance(value, dict):
        value = next(iter(value.values()), 0)
        return {"columns": int(np.size(value))}
    shape = np.shape(value)
    return {"columns": shape[1] if len(shape) == 2 else 1}


COUNTERS = {
    "gf.mat_mul": _mul_ops,
    "gf.row_reduce": _elim_ops,
    "gf.mat_rank": _elim_ops,
    **{name: _columns for name in RS_DECODERS},
}


class Tracer:
    """Records a span per wrapped call while used as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.enabled = True
        self.atom_flags: Counter = Counter()
        self.untimed_s = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers_by_id: dict[int, tuple] | None = None

    def _wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = perf_counter()
                stack.pop()
                if counter is not None:
                    span[4] = counter(args, result)

        return traced

    def _make_wrappers(self) -> dict[int, tuple]:
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"coded_pir.{layer}")
            except ImportError:
                continue
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        return wrappers

    def __enter__(self) -> "Tracer":
        """Rebind every wrapped function; leaving the block restores the originals."""
        if self._wrappers_by_id is None:
            self._wrappers_by_id = self._make_wrappers()
        wrappers = self._wrappers_by_id
        wrapped = set()
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("coded_pir"):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
                    wrapped.add(hit[1].__wrapped__)
        names = {f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}" for fn in wrapped}
        self.absent = [name for name in REQUIRED if name not in names]
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, around one instance or placement."""
        span = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def export(self) -> dict:
        """Spans as (name index, parent, start, end) with times in microseconds."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[index[name], parent, round((start - t0) * 1e6), round((end - t0) * 1e6)]
                for name, parent, start, end, _ctr in self.spans]
        return {"names": names, "columns": ["name", "parent", "start_us", "end_us"],
                "spans": rows}

    def decoded(self, plan, transcript) -> None:
        """Count atom provenance with tracing off; the time is left out of the run."""
        import coded_pir as cp

        recovered = getattr(cp, "recovered_atoms", None)
        if recovered is None:
            return
        t0 = perf_counter()
        self.enabled = False
        try:
            record = recovered(plan, transcript)
        finally:
            self.enabled = True
        for per_file in record.flags.values():
            self.atom_flags.update(per_file.values())
        self.untimed_s += perf_counter() - t0


def layer_metrics(tracer: Tracer, jobs: int, counts: Counter) -> dict[str, float]:
    """Per-layer figures per job (times in s/job, counts in count/job)."""
    spans = tracer.spans
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    stage = [None] * n
    for i, (name, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
        stage[i] = STAGES.get(name, stage[parent] if parent >= 0 else None)

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    total: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    work: Counter = Counter()
    gf_by_stage: Counter = Counter()
    samplers = 0
    for i, (name, parent, _start, _end, ctr) in enumerate(spans):
        lay = layer(i)
        if lay == "bench":
            continue
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        calls[lay] += 1
        outermost = parent < 0 or layer(parent) != lay
        if outermost:
            total[lay] += dur[i]
            if lay == "gf" and stage[i]:
                gf_by_stage[stage[i]] += dur[i]
            if lay == "rs" and stage[i] == "decode":
                work["rs.decode.s"] += dur[i]
        ctr = ctr or {}
        if name == "gf.mat_mul":
            work["mul_ops"] += ctr["ops"]
            work["mul_s"] += dur[i]
        elif name in ELIMINATIONS:
            work["elim_ops"] += ctr["ops"]
            work["elim_s"] += dur[i]
            if parent >= 0 and spans[parent][0] == "gf.sample_invertible":
                work["rank_tests"] += 1
            if name == "gf.mat_rank" and stage[i] == "audit":
                work["rows_ranked"] += ctr["rows"]
                work["useful_rank"] += ctr["rank"]
        elif name in RS_DECODERS and outermost:
            work["columns"] += ctr["columns"]
        elif name == "gf.sample_invertible":
            samplers += 1

    per_job = max(jobs, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "plans.build_plan.s": total["plans.build_plan"],
        "plans.build_plan.self_s": self_time["plans.build_plan"],
        "plans.plan_to_json.s": total["plans.plan_to_json"],
        "plans.plan_from_json.s": total["plans.plan_from_json"],
        "plans.json_bytes": counts["json_bytes"],
        "plans.query_vector_bytes": counts["query_vector_bytes"],
        "plans.queries": counts["queries"],
        "gf.s": total["gf"],
        "gf.calls": calls["gf"],
        "gf.elim_ops": work["elim_ops"],
        "gf.mul_ops": work["mul_ops"],
        "gf.build.s": gf_by_stage["build"],
        "gf.session.s": gf_by_stage["session"],
        "gf.decode.s": gf_by_stage["decode"],
        "gf.audit.s": gf_by_stage["audit"],
        "rs.s": total["rs"],
        "rs.calls": calls["rs"],
        "rs.columns_decoded": work["columns"],
        "rs.decode.s": work["rs.decode.s"],
        "storage.run_session.s": total["storage.run_session"],
        "storage.run_session.self_s": self_time["storage.run_session"],
        "storage.downloaded_symbols": counts["downloaded_symbols"],
        "decode.reconstruct.s": total["decode.reconstruct"],
        "decode.reconstruct.self_s": self_time["decode.reconstruct"],
        "decode.atoms_error_corrected": tracer.atom_flags["error-corrected"],
        "decode.atoms_erasure_completed": tracer.atom_flags["erasure-completed"],
        "decode.expected_failures": counts["expected_failures"],
        "rates.full_privacy_sweep.s": total["rates.full_privacy_sweep"],
        "rates.full_privacy_sweep.self_s": self_time["rates.full_privacy_sweep"],
        "rates.rows_ranked": work["rows_ranked"],
        "patterns.optimize_family.s": total["patterns.optimize_family"],
    }
    m = {k: v / per_job for k, v in m.items()}
    m["gf.elim_ops_per_s"] = ratio(work["elim_ops"], work["elim_s"])
    m["gf.mul_ops_per_s"] = ratio(work["mul_ops"], work["mul_s"])
    m["gf.sample_invertible.rank_tests_per_mask"] = ratio(work["rank_tests"], samplers)
    m["rates.rank_per_row"] = ratio(work["useful_rank"], work["rows_ranked"])
    return m


def per_instance_ms(tracer: Tracer, jobs: int) -> dict[str, dict[str, float]]:
    """Mean build, decode and audit milliseconds per job under each benchmark span."""
    spans = tracer.spans
    owner = [None] * len(spans)
    out: dict[str, Counter] = defaultdict(Counter)
    for i, (name, parent, start, end, _ctr) in enumerate(spans):
        if name.startswith("bench."):
            owner[i] = name[len("bench."):]
        elif parent >= 0:
            owner[i] = owner[parent]
        if owner[i] and name in STAGES:
            out[owner[i]][STAGES[name]] += (end - start) * 1e3 / max(jobs, 1)
    return {k: dict(v) for k, v in out.items()}


def shares(m: dict[str, float]) -> dict[str, float]:
    """Share of each pipeline stage spent in the layer below it."""
    pairs = {
        "gf/build": ("gf.build.s", "plans.build_plan.s"),
        "gf/decode": ("gf.decode.s", "decode.reconstruct.s"),
        "gf/audit": ("gf.audit.s", "rates.full_privacy_sweep.s"),
        "rs/decode": ("rs.decode.s", "decode.reconstruct.s"),
    }
    return {k: m[a] / m[b] for k, (a, b) in pairs.items() if m[b]}
