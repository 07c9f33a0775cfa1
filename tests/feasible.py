"""Every feasible small parameter set, per variant, shared by property tests."""

from dataclasses import replace
from math import comb

from hypothesis import strategies as st

import coded_pir as cp


def _row_count(params):
    """L from the variant table in the ``plans`` docstring."""
    n, k, t, m = params.n_servers, params.code_dim, params.collusion_size, params.n_files
    symbols = comb(n, k)
    x = {
        "robust": comb(n - params.s_robust, k),
        "byzantine": 2 * comb(n - params.b_byzantine, k) - symbols,
    }.get(params.variant.value, symbols)
    ab = cp.compute_alpha_beta(x, symbols - comb(n - t, k))
    return ab.total * symbols if params.variant.value == "multifile" else x * ab.total ** (m - 1)


def _small_feasible_shapes(max_rows=120):
    """Per variant, every feasible parameter set with N <= 6, M <= 3, L <= max_rows."""
    out = {}
    for n in range(2, 7):
        for k in range(1, n):
            for t in range(1, n - k + 1):
                for m in range(1, 4):
                    shapes = (
                        [("prototype", {})]
                        + [("robust", {"s_robust": s}) for s in range(3)]
                        + [("byzantine", {"b_byzantine": b}) for b in range(2)]
                        + [("multifile", {"desired": tuple(range(p))}) for p in range(1, m + 1)]
                    )
                    for variant, extra in shapes:
                        params = cp.SchemeParams(variant=variant, n_servers=n, code_dim=k,
                                                 n_files=m, collusion_size=t, **extra)
                        try:
                            params.validate()
                            if _row_count(params) <= max_rows:
                                out.setdefault(variant, []).append(params)
                        except (cp.PreconditionViolated, cp.InfeasibleRatio):
                            pass
    return out


# Small collusion patterns on N <= 5 servers; the last three have maximal
# sets of different sizes, and a server of size-1 sets may hold no symbol.
SMALL_PATTERNS = (
    ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
    ((0, 1), (1, 2), (2, 3)),
    ((0, 1, 2), (3,)),
    ((0, 1), (2, 3), (4,)),
    ((0, 1, 2), (2, 3), (3, 4)),
)


def _small_pattern_plans(max_rows=120):
    """Every feasible pattern parameter set on ``SMALL_PATTERNS`` with M <= 3 and
    L <= max_rows, each with the family ``optimize_family`` picks."""
    out = []
    for sets in SMALL_PATTERNS:
        pattern = cp.CollusionPattern(sets)
        n = max(pattern.servers()) + 1
        for k in range(1, n):
            try:
                family, ev = cp.optimize_family(pattern, k, n)
            except cp.Infeasible:
                continue
            g = cp.compute_alpha_beta(ev.b, ev.delta).total
            out += [
                cp.SchemeParams(variant="pattern", n_servers=n, code_dim=k, n_files=m,
                                pattern=pattern, family=family)
                for m in range(1, 4)
                if ev.b * g ** (m - 1) <= max_rows
            ]
    return out


SMALL_FEASIBLE = _small_feasible_shapes()
# What ``feasible_params`` draws from: the pattern plans join the other variants.
DRAWN = {**SMALL_FEASIBLE, "pattern": _small_pattern_plans()}


@st.composite
def feasible_params(draw):
    """One small feasible parameter set, with a drawn desired file and plan seed."""
    params = draw(st.sampled_from(DRAWN[draw(st.sampled_from(sorted(DRAWN)))]))
    if params.variant is not cp.Variant.MULTI_FILE:
        params = replace(params, desired=(draw(st.integers(0, params.n_files - 1)),))
    return replace(params, seed=draw(st.integers(0, 2**16)))
