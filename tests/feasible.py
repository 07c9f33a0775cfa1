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


SMALL_FEASIBLE = _small_feasible_shapes()


@st.composite
def feasible_params(draw):
    """One small feasible parameter set, with a drawn desired file and plan seed."""
    params = draw(st.sampled_from(SMALL_FEASIBLE[draw(st.sampled_from(sorted(SMALL_FEASIBLE)))]))
    if params.variant is not cp.Variant.MULTI_FILE:
        params = replace(params, desired=(draw(st.integers(0, params.n_files - 1)),))
    return replace(params, seed=draw(st.integers(0, 2**16)))
