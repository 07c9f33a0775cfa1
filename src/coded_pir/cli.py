"""Command-line harness: reproducible batch runs with JSON reports.

Subcommands: ``rate`` (closed-form rate), ``build`` (dump a plan),
``simulate`` (build, run, decode, verify), ``audit`` (privacy rank
sweep), ``pattern-opt`` (block-family search), ``bounds``
(multi-retrieval capacity tables).

Exit codes: 0 success, 1 runtime verification failure (bad recovery,
rate mismatch, failed audit), 2 configuration or precondition failure.
All randomness flows from ``--seed`` through fixed sub-streams (plan,
database, adversary), so a config reproduces a run byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations
from math import ceil

import numpy as np

from .decode import DecodeError, reconstruct
from .patterns import Infeasible, PatternError, family_from_json, optimize_family, pattern_from_json
from .plans import (
    FieldTooSmall,
    PreconditionViolated,
    SchemeError,
    SchemeParams,
    Variant,
    build_plan,
    params_to_dict,
    plan_to_json,
)
from .rates import (
    achieved_rate,
    audit_report,
    closed_form_rate,
    multifile_capacity_bound,
    naive_comparison,
)
from .storage import Adversary, database_for_plan, run_session

CONFIG_ERROR = 2
VERIFY_ERROR = 1


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v != "")


def _params_from_args(args) -> SchemeParams:
    variant = Variant(args.variant)
    if args.desired is not None:
        desired = _int_list(args.desired)
    elif variant is Variant.MULTI_FILE:
        desired = tuple(range(args.p if args.p else 1))
    else:
        desired = (0,)
    pattern = None
    family = None
    if variant is Variant.PATTERN:
        if not args.pattern:
            raise PreconditionViolated("pattern variant needs --pattern <file>")
        with open(args.pattern) as fh:
            pattern = pattern_from_json(fh.read())
        if args.family:
            with open(args.family) as fh:
                family = family_from_json(fh.read())
        else:
            family, _ = optimize_family(pattern, args.k, args.n)
    return SchemeParams(
        variant=variant,
        n_servers=args.n,
        code_dim=args.k,
        n_files=args.m,
        desired=desired,
        collusion_size=args.t or 0,
        s_robust=args.s or 0,
        b_byzantine=args.b or 0,
        pattern=pattern,
        family=family,
        modulus=args.modulus,
        seed=args.seed,
    )


def cmd_rate(args) -> int:
    params = _params_from_args(args)
    rate = closed_form_rate(params)
    print(f"{_fraction_str(rate)}  (~{float(rate):.6f})")
    doc = {"schema": "coded-pir-rate/1", "params": params_to_dict(params), "closed_form": _fraction_str(rate)}
    if params.variant is Variant.MULTI_FILE:
        cmp = naive_comparison(params)
        doc["naive"] = _fraction_str(cmp.naive)
        doc["better_than_naive"] = cmp.better
        print(f"naive repetition: {_fraction_str(cmp.naive)}  better: {cmp.better}")
    _emit(doc, args.out)
    return 0


def cmd_build(args) -> int:
    plan = build_plan(_params_from_args(args))
    text = plan_to_json(plan)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    layout = plan.layout
    print(
        f"plan: variant={plan.params.variant.value} alpha={layout.ab.alpha} "
        f"beta={layout.ab.beta} L={layout.l_rows} blocks={len(layout.blocks)} "
        f"queries={len(layout.blocks) * layout.array.n_symbols}",
        file=sys.stderr,
    )
    return 0


def _adversaries(plan, args) -> list[Adversary]:
    params = plan.params
    if params.variant is Variant.ROBUST:
        s = params.s_robust
        if args.sweep_adversaries:
            return [Adversary(robust_set=c) for c in combinations(range(params.n_servers), s)]
        chosen = _int_list(args.adv_robust) if args.adv_robust else tuple(range(s))
        return [Adversary(robust_set=chosen)]
    if params.variant is Variant.BYZANTINE:
        bz = params.b_byzantine
        seeds = range(args.corruption_seeds)
        if args.sweep_adversaries:
            return [
                Adversary(byzantine_set=c, seed=cs)
                for c in combinations(range(params.n_servers), bz)
                for cs in seeds
            ]
        chosen = _int_list(args.adv_byzantine) if args.adv_byzantine else tuple(range(bz))
        return [Adversary(byzantine_set=chosen, seed=cs) for cs in seeds]
    robust = _int_list(args.adv_robust) if args.adv_robust else ()
    byz = _int_list(args.adv_byzantine) if args.adv_byzantine else ()
    if robust or byz:
        return [Adversary(robust_set=robust, byzantine_set=byz, seed=args.seed)]
    return [Adversary()]


def cmd_simulate(args) -> int:
    params = _params_from_args(args)
    plan = build_plan(params)
    db = database_for_plan(plan, seed=args.seed)
    closed = closed_form_rate(params)
    runs = []
    all_ok = True
    for adv in _adversaries(plan, args):
        transcript = run_session(plan, db, adversary=adv)
        achieved = achieved_rate(plan, transcript)
        try:
            recovered = reconstruct(plan, transcript)
            exact = all(np.array_equal(recovered[f], db.files[f]) for f in params.desired)
            note = "" if exact else "recovered data differs from the database"
        except DecodeError as exc:
            exact = False
            note = str(exc)
        ok = exact and achieved == closed
        all_ok = all_ok and ok
        runs.append(
            {
                "robust_set": list(adv.robust_set),
                "byzantine_set": list(adv.byzantine_set),
                "corruption_seed": adv.seed,
                "exact_recovery": exact,
                "achieved": _fraction_str(achieved),
                "note": note,
            }
        )
    doc = {
        "schema": "coded-pir-simulate/1",
        "params": params_to_dict(params),
        "closed_form": _fraction_str(closed),
        "runs": runs,
        "all_exact": all_ok,
    }
    _emit(doc, args.out)
    status = "ok" if all_ok else "FAIL"
    print(f"{status}: {len(runs)} run(s), closed-form rate {_fraction_str(closed)}", file=sys.stderr)
    return 0 if all_ok else VERIFY_ERROR


def cmd_audit(args) -> int:
    params = _params_from_args(args)
    plan = build_plan(params)
    outside = None
    if args.all_pairs and params.variant is Variant.PATTERN:
        member = set(params.pattern.maximal_sets)
        outside = [s for s in combinations(range(params.n_servers), params.pattern.max_size) if s not in member]
    doc = audit_report(plan, outside)
    for a in doc.get("outside_pattern", []):
        if not a["pass"]:
            print(
                f"warning: non-pattern set {tuple(a['collusion_set'])} distinguishes files "
                f"(ranks {tuple(a['per_file_rank'])}); the pattern does not protect it",
                file=sys.stderr,
            )
    _emit(doc, args.out)
    for a in doc["audits"]:
        mark = "pass" if a["pass"] else "FAIL"
        print(f"{mark} set={a['collusion_set']} ranks={a['per_file_rank']} expected={a['expected_rank']}", file=sys.stderr)
    return 0 if doc["all_pass"] else VERIFY_ERROR


def cmd_pattern_opt(args) -> int:
    with open(args.pattern) as fh:
        pattern = pattern_from_json(fh.read())
    family, ev = optimize_family(pattern, args.k, args.n, max_blocks=args.max_blocks)
    from .rates import inverse_geometric_sum

    rate = inverse_geometric_sum(ev.ratio, args.m)
    doc = {
        "schema": "coded-pir-family/1",
        "family": [list(blk) for blk in family.blocks],
        "b": ev.b,
        "delta": ev.delta,
        "ratio": _fraction_str(ev.ratio),
        "rate": _fraction_str(rate),
        "n_files": args.m,
    }
    _emit(doc, args.out)
    print(f"b={ev.b} delta={ev.delta} ratio={_fraction_str(ev.ratio)} rate={_fraction_str(rate)}", file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    if (args.k is None) == (args.t is None):
        raise PreconditionViolated("bounds needs exactly one of --k (case T=1) or --t (case K=1)")
    if args.k is not None:
        case, x = "T=1", args.k
    else:
        case, x = "K=1", args.t
    rows = []
    p_values = [args.p] if args.p else list(range(ceil(args.m / 2), args.m + 1))
    for p_files in p_values:
        bound = multifile_capacity_bound(args.n, x, args.m, p_files, case)
        row = {"p_files": p_files, "bound": _fraction_str(bound)}
        try:
            params = SchemeParams(
                variant=Variant.MULTI_FILE,
                n_servers=args.n,
                code_dim=args.k if args.k is not None else 1,
                n_files=args.m,
                desired=tuple(range(p_files)),
                collusion_size=args.t if args.t is not None else 1,
                modulus=args.modulus,
                seed=args.seed,
            )
            row["scheme_rate"] = _fraction_str(closed_form_rate(params))
            row["meets_bound"] = row["scheme_rate"] == row["bound"]
        except SchemeError:
            row["scheme_rate"] = None
        rows.append(row)
        print(f"P={p_files}: bound {row['bound']}  scheme {row.get('scheme_rate')}")
    _emit({"schema": "coded-pir-bounds/1", "case": case, "n": args.n, "m": args.m, "k_or_t": x, "table": rows}, args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--variant", choices=[v.value for v in Variant], default="prototype")
    sub.add_argument("--n", type=int, required=True, help="number of servers N")
    sub.add_argument("--k", type=int, required=True, help="storage code dimension K")
    sub.add_argument("--t", type=int, default=None, help="collusion size T")
    sub.add_argument("--m", type=int, required=True, help="number of files M")
    sub.add_argument("--s", type=int, default=None, help="robust (absent) servers S")
    sub.add_argument("--b", type=int, default=None, help="Byzantine servers B")
    sub.add_argument("--p", type=int, default=None, help="retrieved files P (multifile)")
    sub.add_argument("--desired", type=str, default=None, help="comma-separated file indices")
    sub.add_argument("--pattern", type=str, default=None, help="collusion pattern JSON file")
    sub.add_argument("--family", type=str, default=None, help="block family JSON file")
    sub.add_argument("--modulus", type=int, default=65537)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", type=str, default=None, help="write the JSON report here")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coded-pir",
        description="Private retrieval schemes over MDS-coded storage",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    rate = subs.add_parser("rate", help="closed-form rate for a parameter set")
    _add_common(rate)
    rate.set_defaults(fn=cmd_rate)

    build = subs.add_parser("build", help="construct a plan and dump its JSON")
    _add_common(build)
    build.set_defaults(fn=cmd_build)

    sim = subs.add_parser("simulate", help="run sessions and verify exact recovery")
    _add_common(sim)
    sim.add_argument("--sweep-adversaries", action="store_true", help="try every fault placement")
    sim.add_argument("--corruption-seeds", type=int, default=1)
    sim.add_argument("--adv-robust", type=str, default=None, help="absent servers, comma-separated")
    sim.add_argument("--adv-byzantine", type=str, default=None, help="lying servers, comma-separated")
    sim.set_defaults(fn=cmd_simulate)

    audit = subs.add_parser("audit", help="privacy rank sweep over collusion sets")
    _add_common(audit)
    audit.add_argument("--all-pairs", action="store_true", help="also audit sets outside the pattern")
    audit.set_defaults(fn=cmd_audit)

    popt = subs.add_parser("pattern-opt", help="search block families for a collusion pattern")
    popt.add_argument("--pattern", type=str, required=True)
    popt.add_argument("--k", type=int, required=True)
    popt.add_argument("--n", type=int, required=True)
    popt.add_argument("--m", type=int, default=2, help="file count for the reported rate")
    popt.add_argument("--max-blocks", type=int, default=None)
    popt.add_argument("--out", type=str, default=None)
    popt.set_defaults(fn=cmd_pattern_opt)

    bounds = subs.add_parser("bounds", help="multi-retrieval capacity bound tables")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--m", type=int, required=True)
    bounds.add_argument("--k", type=int, default=None, help="storage dimension (case T=1)")
    bounds.add_argument("--t", type=int, default=None, help="collusion size (case K=1)")
    bounds.add_argument("--p", type=int, default=None, help="single P instead of a table")
    bounds.add_argument("--modulus", type=int, default=65537)
    bounds.add_argument("--seed", type=int, default=0)
    bounds.add_argument("--out", type=str, default=None)
    bounds.set_defaults(fn=cmd_bounds)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PreconditionViolated, FieldTooSmall, Infeasible, PatternError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (SchemeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
