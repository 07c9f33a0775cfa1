"""coded-pir benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload reference --seed 1 --seconds 20 --trace 0

Runs the workload's set-up several times, then repeats its job until
``--seconds`` have passed (at least once), checking every output against
its pinned value.  Prints each metric with its unit and,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  A full
results file, with provenance, goes to ``bench/results/``.

The traced run runs each job twice in a row: untraced, and with every
public ``coded_pir`` call wrapped in a span, in alternating order.  The
per-layer metrics come from the traced copies; ``trace.overhead_ratio``
is traced over untraced wall time.
Exits 1 when any output misses its pinned value, 2 when the program
cannot be found or the workload would not fit the memory budget.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 9


def import_program():
    """Import coded_pir from this checkout's sources, and from nowhere else."""
    if not (SRC / "coded_pir" / "__init__.py").is_file():
        raise ImportError(f"no coded_pir sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import coded_pir

    if not Path(coded_pir.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"coded_pir was imported from {coded_pir.__file__}, not {SRC}")


def _git_rev() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> int | str:
    """Threads the OpenBLAS bundled with numpy will use, asked of the library itself."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def provenance(args) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       platform.processor() or "unknown")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_rev": _git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_jobs(job, seconds: float):
    """Closed loop: job i+1 starts when job i is done; at least one job runs.

    Returns the job results and each job's wall time.
    """
    results, walls = [], []
    start = perf_counter()
    while not results or perf_counter() - start < seconds:
        t0 = perf_counter()
        results.append(job(len(results)))
        walls.append(perf_counter() - t0)
    return results, walls


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3


def sustained_rate(walls, cycle: int) -> float:
    """Jobs per second at the slow-side quartile of the run's full cycles.

    A cycle is the workload's full mix of jobs.  The shared host speeds up
    for seconds at a time when its neighbours idle, so the mean rate of a
    run swings with how much of it fell in such bursts; the lower quartile
    of the cycle rates keeps to the sustained speed.  A run shorter than
    two cycles reports its mean rate.
    """
    rates = [cycle / sum(walls[i:i + cycle]) for i in range(0, len(walls) - cycle + 1, cycle)]
    if len(rates) < 2:
        return len(walls) / sum(walls)
    return statistics.quantiles(rates, n=4, method="inclusive")[0]


def overhead_ratio(pairs) -> float:
    """Traced over untraced wall time of the twin jobs.

    Even jobs ran untraced first, odd jobs traced first.  The ratio is the
    geometric mean of the two orders' ratios, so an advantage of running
    second cancels even when one order ran once more than the other.
    """
    ratios = [sum(t for _, (_, t) in half) / sum(t for (_, t), _ in half)
              for half in (pairs[0::2], pairs[1::2]) if half]
    return math.prod(ratios) ** (1 / len(ratios))


def end_to_end(setups, setup_walls, results, walls, cycle, import_s) -> dict[str, float]:
    """The user-visible figures of one untraced run."""
    retrievals = [r.times["retrieve"] for r in results]
    # A workload whose jobs only retrieve builds and audits in its set-ups.
    sampled = results if "build" in results[0].times else setups
    builds = [r.times["build"] for r in sampled]
    audits = [r.times["audit"] for r in sampled]
    return {
        "jobs_per_s": sustained_rate(walls, cycle),
        "build_ms_p50": _median_ms(builds),
        "retrieve_ms_p50": _median_ms(retrievals),
        "audit_ms_p50": _median_ms(audits),
        "setup_s": import_s + statistics.median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "retrieve_ms_p90": statistics.quantiles(retrievals, n=10)[-1] * 1e3
        if len(retrievals) >= 100 else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed length of the run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_program()
    except (OSError, ImportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    import workloads
    import tracing

    import_s = perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        workloads.check_memory(workload.instances)
    except workloads.MemoryBudgetExceeded as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    no_trace = workloads.NoTrace()
    setups, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        setups.append(workload.setup(no_trace))
        setup_walls.append(perf_counter() - t0)

    report: dict = {"provenance": provenance(args)}
    if args.trace:
        tracer = tracing.Tracer()

        def traced_copy(i):
            untimed = tracer.untimed_s
            with tracer:
                result, wall = timed(workload.job, i, tracer)
            return result, wall - (tracer.untimed_s - untimed)

        def traced_twin(i):
            # Job i runs once untraced and once traced, the order alternating
            # with i, so drift and warm-up fall on both sides of the ratio.
            if i % 2:
                traced = traced_copy(i)
            plain = timed(workload.job, i, no_trace)
            if not i % 2:
                traced = traced_copy(i)
            return plain, traced

        pairs, _ = run_jobs(traced_twin, args.seconds)
        untraced = [plain for (plain, _), _ in pairs]
        results = [traced for _, (traced, _) in pairs]
        counts = sum((r.counts for r in results), Counter())
        metrics = tracing.layer_metrics(tracer, len(results), counts)
        metrics["trace.overhead_ratio"] = overhead_ratio(pairs)
        names = spec["per_layer"]
        report["absent"] = tracer.absent
        report["per_instance_ms"] = tracing.per_instance_ms(tracer, len(results))
        report["shares"] = tracing.shares(metrics)
        mismatch = [i for i, (a, b) in enumerate(zip(untraced, results))
                    if (a.outcomes, a.counts) != (b.outcomes, b.counts)]
        all_results = setups + untraced + results
        report["spans"] = f"{args.workload}-seed{args.seed}-spans.json"
    else:
        results, walls = run_jobs(lambda i: workload.job(i, no_trace), args.seconds)
        metrics = end_to_end(setups, setup_walls, results, walls, workload.cycle, import_s)
        names = spec["end_to_end"]
        report["job_walls_s"] = walls
        mismatch = []
        all_results = setups + results

    attempted = sum(r.attempted for r in all_results)
    failures = [f for r in all_results for f in r.failures]
    failures += [f"job {i}: traced outcome differs from untraced" for i in mismatch]
    metrics["fail_rate"] = len(failures) / attempted
    report.update(
        jobs=len(results),
        attempted=attempted,
        failures=failures,
        counts=dict(sum((r.counts for r in results), Counter())),
        outcomes=[r.outcomes for r in results],
        metrics=metrics,
    )

    width = max(len(m["name"]) for m in names)
    print(f"# {args.workload} seed={args.seed} jobs={len(results)} attempted={attempted}")
    for m in names:
        print(f"{m['name']:<{width}}  {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{'fail_rate':<{width}}  {metrics['fail_rate']:.6g} ratio")
    if metrics.get("retrieve_ms_p90") is not None:
        print(f"{'retrieve_ms_p90':<{width}}  {metrics['retrieve_ms_p90']:.6g} ms")
    for name, value in report.get("shares", {}).items():
        print(f"share {name:<{width - 6}}  {value:.3f}")
    for f in failures[:20]:
        print(f"MISS {f}")
    for name in report.get("absent", []):
        print(f"absent: {name}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if args.trace:
        (RESULTS / report["spans"]).write_text(json.dumps(tracer.export()))

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
