from fractions import Fraction
from itertools import chain, combinations
from math import comb

import pytest

from coded_pir import cli, patterns
from conftest import PENTAGON_SETS, PENTAGON_TRIPLES


def brute_force_best_ratio(pattern, k, n, max_blocks=None):
    """Independent exhaustive search over all repeat-free subfamilies."""
    universe = list(combinations(range(n), k))
    if max_blocks is None:
        max_blocks = len(universe)
    best = None
    subsets = chain.from_iterable(
        combinations(universe, size) for size in range(1, max_blocks + 1)
    )
    for fam in subsets:
        delta = max(
            sum(1 for blk in fam if set(blk) & set(t)) for t in pattern.maximal_sets
        )
        if delta >= len(fam):
            continue
        ratio = Fraction(delta, len(fam))
        if best is None or ratio < best:
            best = ratio
    return best


def test_pattern_rejects_non_antichain():
    with pytest.raises(patterns.PatternError):
        patterns.CollusionPattern(((0, 1), (0, 1, 2)))


def test_pattern_uniform():
    pat = patterns.CollusionPattern.uniform(4, 2)
    assert len(pat.maximal_sets) == 6
    assert pat.max_size == 2


def test_family_eval_pentagon():
    pat = patterns.CollusionPattern(PENTAGON_SETS)
    fam = patterns.BlockFamily(PENTAGON_TRIPLES, 3)
    ev = patterns.family_eval(pat, fam)
    assert (ev.b, ev.delta) == (5, 4)
    assert ev.ratio == Fraction(4, 5)
    assert set(ev.per_set_counts) == {4}


def test_family_eval_all_triples_of_pentagon():
    # Triples meeting a fixed pair: all ten minus the single disjoint one.
    pat = patterns.CollusionPattern(PENTAGON_SETS)
    fam = patterns.BlockFamily.all_subsets(5, 3)
    ev = patterns.family_eval(pat, fam)
    assert (ev.b, ev.delta) == (10, 9)


def test_family_eval_disjoint_block_contributes_nothing():
    pat = patterns.CollusionPattern(((0, 1),))
    fam = patterns.BlockFamily(((2, 3), (0, 2)), 2)
    ev = patterns.family_eval(pat, fam)
    assert ev.per_set_counts == (1,)


def test_optimize_family_pentagon_hits_four_fifths():
    pat = patterns.CollusionPattern(PENTAGON_SETS)
    fam, ev = patterns.optimize_family(pat, 3, 5)
    assert ev.ratio == Fraction(4, 5)
    assert ev.b > ev.delta
    # and the returned family really evaluates to its claim
    assert patterns.family_eval(pat, fam).ratio == ev.ratio


def test_optimize_family_agrees_with_brute_force_small():
    cases = [
        (patterns.CollusionPattern(PENTAGON_SETS), 3, 5),
        (patterns.CollusionPattern.uniform(4, 2), 2, 4),
        (patterns.CollusionPattern(((0, 1), (2, 3))), 2, 4),
        (patterns.CollusionPattern(((0,), (1,), (2,))), 2, 4),
    ]
    for pat, k, n in cases:
        _, ev = patterns.optimize_family(pat, k, n)
        assert ev.ratio == brute_force_best_ratio(pat, k, n)


def test_optimize_family_never_beaten_by_all_subsets_family():
    for n, k, t in [(4, 2, 2), (5, 2, 2), (5, 3, 2)]:
        pat = patterns.CollusionPattern.uniform(n, t)
        fam_all = patterns.BlockFamily.all_subsets(n, k)
        baseline = patterns.family_eval(pat, fam_all)
        assert baseline.ratio == Fraction(comb(n, k) - comb(n - t, k), comb(n, k))
        _, ev = patterns.optimize_family(pat, k, n)
        assert ev.ratio <= baseline.ratio


def test_optimize_family_infeasible_when_one_set_covers_everything():
    pat = patterns.CollusionPattern(((0, 1, 2, 3),))
    with pytest.raises(patterns.Infeasible):
        patterns.optimize_family(pat, 2, 4)


def test_optimize_family_budget_guard():
    pat = patterns.CollusionPattern.uniform(8, 2)
    with pytest.raises(patterns.PatternError):
        patterns.optimize_family(pat, 4, 8)  # C(8,4) = 70 subsets


def test_optimize_family_max_blocks_limits_search():
    pat = patterns.CollusionPattern(PENTAGON_SETS)
    fam, ev = patterns.optimize_family(pat, 3, 5, max_blocks=5)
    assert ev.b <= 5


def test_family_eval_invariant_under_relabeling():
    pat = patterns.CollusionPattern(PENTAGON_SETS)
    fam = patterns.BlockFamily(PENTAGON_TRIPLES, 3)
    relabel = {0: 3, 1: 4, 2: 0, 3: 2, 4: 1}
    pat2 = patterns.CollusionPattern(
        tuple(tuple(relabel[v] for v in s) for s in pat.maximal_sets)
    )
    fam2 = patterns.BlockFamily(
        tuple(tuple(relabel[v] for v in blk) for blk in fam.blocks), 3
    )
    a, b = patterns.family_eval(pat, fam), patterns.family_eval(pat2, fam2)
    assert (a.b, a.delta) == (b.b, b.delta)
    assert sorted(a.per_set_counts) == sorted(b.per_set_counts)


def test_multiset_families_cannot_beat_repeat_free_optimum():
    # Duplicating blocks scales both delta and b, so the evaluator may
    # accept multisets but the search over supports stays optimal.
    import random

    rng = random.Random(5)
    pat = patterns.CollusionPattern(PENTAGON_SETS)
    _, best = patterns.optimize_family(pat, 3, 5)
    universe = list(combinations(range(5), 3))
    for _ in range(300):
        size = rng.randint(1, 8)
        blocks = tuple(rng.choice(universe) for _ in range(size))
        ev = patterns.family_eval(pat, patterns.BlockFamily(blocks, 3))
        if ev.delta < ev.b:
            assert ev.ratio >= best.ratio


def test_json_roundtrip():
    pat = patterns.pattern_from_json("[[0,1],[1,2]]")
    assert pat.maximal_sets == ((0, 1), (1, 2))
    fam = patterns.family_from_json("[[0,1,2],[2,3,4]]")
    assert fam.k == 3 and fam.b == 2
    with pytest.raises(patterns.PatternError):
        patterns.family_from_json("[[0,1],[0,1,2]]")
    assert patterns.subsets_to_json(pat.maximal_sets) == "[[0, 1], [1, 2]]"


_NOT_SETS = "JSON must be a nonempty list of integer lists$"


@pytest.mark.parametrize("text, message", [
    *((text, _NOT_SETS) for text in ["[[0.9,1],[1,2]]", "true", '"23"', "5", "[]", "[[0,1],[true,2]]", "[[0,1],2]"]),
    ("not json", "JSON is malformed: Expecting value at line 1 column 1$"),
    ("[" * 100000, "JSON nests arrays or objects too deeply to parse$"),
])
def test_pattern_and_family_files_hold_integer_lists(text, message, tmp_path, capsys):
    for what, load in (("pattern", patterns.pattern_from_json), ("family", patterns.family_from_json)):
        with pytest.raises(patterns.PatternError, match=f"^{what} {message}"):
            load(text)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = ["audit", "--variant", "pattern", "--n", "5", "--k", "3", "--m", "2", "--pattern", str(bad)]
    assert cli.main(argv) == cli.CONFIG_ERROR == 2
    assert capsys.readouterr().err.startswith("configuration error: pattern JSON")
