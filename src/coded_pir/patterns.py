"""Collusion patterns and K-subset block families.

A collusion pattern is an inclusion-closed family of server subsets,
stored by its maximal sets.  A block family is a list of K-subsets of
the servers; its quality for a given pattern is the worst-case count
``delta`` of family blocks any one collusion set touches, and the
figure of merit is the ratio delta / b (smaller is better: the scheme
rate decays geometrically in it).

:func:`optimize_family` searches all subfamilies of the K-subsets
exhaustively, which is feasible while C(N, K) stays at desk scale (the
default budget is 20 subsets, i.e. about a million candidate families).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

Subset = tuple[int, ...]


class PatternError(Exception):
    pass


class Infeasible(PatternError):
    """No family has b > delta, so no scheme rate is achievable."""


def _normalize_sets(sets, what: str) -> tuple[Subset, ...]:
    out = []
    for s in sets:
        t = tuple(sorted(int(v) for v in s))
        if len(t) == 0:
            raise PatternError(f"{what} contains an empty subset")
        if len(set(t)) != len(t):
            raise PatternError(f"{what} contains a repeated server in {t}")
        if t[0] < 0:
            raise PatternError(f"{what} contains a negative server index in {t}")
        out.append(t)
    return tuple(out)


@dataclass(frozen=True)
class CollusionPattern:
    """Maximal colluding server sets; the pattern is their downward closure."""

    maximal_sets: tuple[Subset, ...]

    def __post_init__(self):
        sets = _normalize_sets(self.maximal_sets, "pattern")
        object.__setattr__(self, "maximal_sets", sets)
        if not sets:
            raise PatternError("pattern needs at least one collusion set")
        for a in sets:
            for b in sets:
                if a != b and set(a) <= set(b):
                    raise PatternError(f"{a} is contained in {b}; maximal sets must form an antichain")

    @classmethod
    def uniform(cls, n_servers: int, t: int) -> "CollusionPattern":
        """The any-t-of-n pattern: all t-subsets are maximal."""
        return cls(tuple(combinations(range(n_servers), t)))

    @property
    def max_size(self) -> int:
        return max(len(s) for s in self.maximal_sets)

    def servers(self) -> set[int]:
        return set(v for s in self.maximal_sets for v in s)


@dataclass(frozen=True)
class BlockFamily:
    """A family of K-subsets of the servers (symbols of the assisting array)."""

    blocks: tuple[Subset, ...]
    k: int

    def __post_init__(self):
        blocks = _normalize_sets(self.blocks, "family")
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise PatternError("family needs at least one block")
        for blk in blocks:
            if len(blk) != self.k:
                raise PatternError(f"family block {blk} has size {len(blk)}, expected {self.k}")

    @classmethod
    def all_subsets(cls, n_servers: int, k: int) -> "BlockFamily":
        """All K-subsets of the servers, in lexicographic order."""
        return cls(tuple(combinations(range(n_servers), k)), k)

    @property
    def b(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class FamilyEval:
    """Per-pattern quality of a family: b blocks, worst hit count delta."""

    b: int
    delta: int
    per_set_counts: tuple[int, ...]
    ratio: Fraction


def family_eval(pattern: CollusionPattern, family: BlockFamily) -> FamilyEval:
    """Count, per maximal collusion set, the family blocks it intersects."""
    counts = tuple(
        sum(1 for blk in family.blocks if set(blk) & set(t)) for t in pattern.maximal_sets
    )
    delta = max(counts)
    return FamilyEval(b=family.b, delta=delta, per_set_counts=counts, ratio=Fraction(delta, family.b))


def optimize_family(
    pattern: CollusionPattern,
    k: int,
    n_servers: int,
    max_blocks: int | None = None,
    budget: int = 20,
) -> tuple[BlockFamily, FamilyEval]:
    """Repeat-free family minimizing delta / b, by exhaustive enumeration.

    Searches every nonempty subfamily of the C(n_servers, k) K-subsets
    with at most ``max_blocks`` blocks.  Ties break toward fewer blocks,
    then the lexicographically smallest family.  Raises Infeasible when
    no family satisfies b > delta (every K-subset meets some collusion
    set too often), and PatternError when C(n_servers, k) exceeds the
    enumeration budget.
    """
    if pattern.servers() - set(range(n_servers)):
        raise PatternError("pattern references servers beyond n_servers")
    universe = list(combinations(range(n_servers), k))
    c = len(universe)
    if c == 0:
        raise PatternError(f"no {k}-subsets of {n_servers} servers")
    if c > budget:
        raise PatternError(
            f"C({n_servers},{k}) = {c} exceeds the enumeration budget of {budget} subsets"
        )
    if max_blocks is None:
        max_blocks = c
    # Bitmask per maximal set of the universe blocks it intersects.
    set_masks = []
    for t in pattern.maximal_sets:
        mask = 0
        for j, blk in enumerate(universe):
            if set(blk) & set(t):
                mask |= 1 << j
        set_masks.append(mask)

    def members_of(mask: int) -> tuple[int, ...]:
        return tuple(j for j in range(c) if mask >> j & 1)

    best_mask = 0
    best_b = 1
    best_delta = 1  # sentinel ratio 1/1; anything below it wins
    for fam_mask in range(1, 1 << c):
        b = fam_mask.bit_count()
        if b > max_blocks:
            continue
        delta = max((fam_mask & m).bit_count() for m in set_masks)
        # compare delta/b against the incumbent without building fractions
        diff = delta * best_b - best_delta * b
        if diff > 0:
            continue
        if diff == 0 and best_mask:
            if b > best_b:
                continue
            if b == best_b and not members_of(fam_mask) < members_of(best_mask):
                continue
        best_mask, best_b, best_delta = fam_mask, b, delta
    if not best_mask or best_delta >= best_b:
        raise Infeasible("every candidate family has delta >= b")
    members = members_of(best_mask)
    family = BlockFamily(tuple(universe[j] for j in members), k)
    counts = tuple((best_mask & m).bit_count() for m in set_masks)
    evaluation = FamilyEval(
        b=best_b, delta=best_delta, per_set_counts=counts, ratio=Fraction(best_delta, best_b)
    )
    return family, evaluation


def subsets_to_json(sets) -> str:
    return json.dumps([list(s) for s in sets])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_ints(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _is_sets(value) -> bool:
    """A nonempty list of integer lists: the JSON form of a pattern or family."""
    return isinstance(value, list) and value != [] and all(map(_is_ints, value))


def _parse_json(text: str, what: str, error: type[Exception], parse_float):
    """``json.loads``; ``error`` refuses text that is not JSON, naming the line and column, or the nesting."""
    try:
        return json.loads(text, parse_float=parse_float)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is malformed: {exc.msg} at line {exc.lineno} column {exc.colno}") from None
    except RecursionError:
        raise error(f"{what} nests arrays or objects too deeply to parse") from None


def _sets_from_json(text: str, what: str) -> tuple[Subset, ...]:
    sets = _parse_json(text, f"{what} JSON", PatternError, float)
    if not _is_sets(sets):
        raise PatternError(f"{what} JSON must be a nonempty list of integer lists")
    return tuple(map(tuple, sets))


def pattern_from_json(text: str) -> CollusionPattern:
    """Pattern from a JSON list of server-index lists."""
    return CollusionPattern(_sets_from_json(text, "pattern"))


def family_from_json(text: str) -> BlockFamily:
    """Family from a JSON list of server-index lists (uniform size)."""
    blocks = _sets_from_json(text, "family")
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise PatternError(f"family blocks have mixed sizes {sorted(sizes)}")
    return BlockFamily(blocks, sizes.pop())
