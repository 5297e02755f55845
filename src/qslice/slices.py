"""Horizontal slices of the self-affine graph, computed two independent ways.

A height y meets the attractor in the set of x whose ternary digits label a
surviving branch sequence of the expansion dynamics at y/(q-1). This module
enumerates those sequences exactly, classifies the cardinality of the slice,
and cross-checks against a purely geometric box-descent oracle that never
touches the dynamics.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Optional

from .algebraic import AlgebraicNumber, FieldElement, over_q
from .dynamics import (
    PointLike,
    enumerate_orbits,
    ternary_branch_system,
    unique_orbit_check,
    UniqueOrbitResult,
    UniqueOrbitStatus,
)
from .words import Alphabet, Word, successor


class SliceInputError(ValueError):
    pass


class ClaimKind(Enum):
    ExactlyN = "ExactlyN"
    AtLeastN = "AtLeastN"
    UncountablePattern = "UncountablePattern"
    Unknown = "Unknown"


@dataclass(frozen=True)
class CardinalityClaim:
    """What the enumeration proves about the number of slice points.

    ExactlyN with certified=True: every surviving orbit carries an eternal
    uniqueness certificate and the cylinders are pairwise non-adjacent, so
    the slice has exactly n points. certified=False weakens the last step
    to "single branch through the probe horizon": exactly n points at this
    resolution. AtLeastN counts pairwise-disjoint groups of cylinders, each
    guaranteed to hold a point. UncountablePattern reports an observed
    doubling pattern (two disjoint subtrees that both branch again).
    """

    kind: ClaimKind
    n: Optional[int] = None
    certified: Optional[bool] = None
    witness: Optional[tuple] = None


def exactly(n: int, certified: bool) -> CardinalityClaim:
    return CardinalityClaim(ClaimKind.ExactlyN, n=n, certified=certified)


def at_least(n: int) -> CardinalityClaim:
    return CardinalityClaim(ClaimKind.AtLeastN, n=n)


def uncountable_pattern(witness: tuple) -> CardinalityClaim:
    return CardinalityClaim(ClaimKind.UncountablePattern, witness=witness)


def unknown_cardinality() -> CardinalityClaim:
    return CardinalityClaim(ClaimKind.Unknown)


@dataclass(frozen=True)
class SliceResult:
    """One slice decision. paths holds the surviving ternary branch
    sequences as digit tuples, in path order; it is the constructor field.
    cylinders is the same sequences as ternary Words, built on first
    access and kept: a decision itself never needs them."""

    base: AlgebraicNumber
    y: FieldElement
    depth: int
    paths: tuple[tuple[int, ...], ...]
    claim: CardinalityClaim
    branch_events: tuple[tuple[int, tuple[int, ...]], ...]
    truncated: bool
    leaf_probes: tuple[UniqueOrbitResult, ...] = ()

    @cached_property
    def cylinders(self) -> tuple[Word, ...]:
        return tuple(Word(Alphabet.TERNARY, p) for p in self.paths)


def _lift_unit_value(q: AlgebraicNumber, y: PointLike) -> FieldElement:
    if isinstance(y, FieldElement):
        if not (y.base is q or y.base == q):
            raise SliceInputError("height belongs to a different field")
    else:
        y = Fraction(y)
    if not 0 <= y <= 1:
        raise SliceInputError("height must lie in [0, 1]")
    return y if isinstance(y, FieldElement) else q.rational(y)


def _doubling_witness(events) -> Optional[tuple]:
    for s, p in events:
        seen_children = set()
        for s2, p2 in events:
            if s2 > s and len(p2) > len(p) and p2[: len(p)] == p:
                seen_children.add(p2[len(p)])
                if len(seen_children) >= 2:
                    return (s, p, tuple(sorted(seen_children)))
    return None


def _adjacency_groups(paths) -> int:
    """The number of runs of numerically consecutive ternary paths."""
    if not paths:
        return 0
    ordered = sorted(paths)
    return 1 + sum(successor(prev, 3) != cur for prev, cur in zip(ordered, ordered[1:]))


def compute_slice(
    q: AlgebraicNumber,
    y: PointLike,
    depth: int,
    max_cylinders: int = 4096,
) -> SliceResult:
    """Enumerate every surviving ternary branch sequence at height y.

    The frontier is expanded breadth-first with exact arithmetic. If it
    outgrows max_cylinders the enumeration stops early and only pattern
    claims are made.
    """
    yv = _lift_unit_value(q, y)
    sys = ternary_branch_system(q)
    walk = enumerate_orbits(sys, yv * sys.hull_hi, depth, max_cylinders)  # y / (q - 1)
    events = tuple(walk.events)

    paths = tuple(walk.paths)
    witness = _doubling_witness(events)

    if witness is not None:
        claim = uncountable_pattern(witness)
        return SliceResult(
            q, yv, depth, paths, claim, events, walk.truncated
        )
    if walk.truncated:
        return SliceResult(
            q, yv, depth, paths, unknown_cardinality(), events, True
        )

    n = len(paths)
    groups = _adjacency_groups(paths)
    probes = tuple(
        unique_orbit_check(q, point, depth) for point in walk.points()
    )
    branched = any(
        r.status == UniqueOrbitStatus.BranchFoundAt for r in probes
    )
    if branched or groups < n:
        claim = at_least(groups)
    elif all(r.status == UniqueOrbitStatus.UniqueCertified for r in probes):
        claim = exactly(n, certified=True)
    else:
        claim = exactly(n, certified=False)
    return SliceResult(
        q, yv, depth, paths, claim, events, False, probes
    )


# ---------------------------------------------------------------------------
# geometric oracle: pure box descent, no dynamics
# ---------------------------------------------------------------------------


class OracleBoxes(Set):
    """The boxes geometric_slice_oracle finds: to a reader, a read-only set
    of ternary Words. It holds the descent's digit tuples, as the frozenset
    paths, and builds a Word only for a caller that iterates. Set algebra
    with it (-, |, &) gives a plain set of Words, and it is unhashable, like
    set."""

    __slots__ = ("paths",)

    def __init__(self, paths: frozenset[tuple[int, ...]]):
        self.paths = paths

    def __len__(self) -> int:
        return len(self.paths)

    def __contains__(self, w) -> bool:
        return isinstance(w, Word) and w.alphabet is Alphabet.TERNARY and w.symbols in self.paths

    def __iter__(self):
        return (Word(Alphabet.TERNARY, p) for p in self.paths)

    @classmethod
    def _from_iterable(cls, words) -> set[Word]:
        return set(words)


def geometric_slice_oracle(
    q: AlgebraicNumber, y: PointLike, depth: int
) -> OracleBoxes:
    """Words whose closed box (depth-fold image of the unit square) meets
    the horizontal line at y, as a read-only set of ternary Words.

    Independent of the branch dynamics: only the three vertical affine
    contractions t/q, (1 - 2/q) t + 1/q and t/q + 1 - 1/q are iterated,
    with exact interval endpoints; the middle one reverses orientation. A
    word's box height range is its composed map applied to [0, 1], so
    appending a digit composes on the inside: a word with slope a and
    offset b has the children (u, b), (a - 2u, u + b) and (u, a - u + b),
    where u = a/q. Because boxes are closed, a slice point sitting on a box
    corner appears under both of its ternary spellings; the dynamics keeps
    only the lower spelling's successor, so callers comparing against
    compute_slice should accept a box-only word exactly when its numeric
    successor survives dynamically.
    """
    yv = _lift_unit_value(q, y)
    if q.is_rational:
        return OracleBoxes(_integer_boxes(q.rational_value, yv, depth))
    return OracleBoxes(_lattice_boxes(yv, depth))


def _integer_boxes(q: Fraction, y: FieldElement, depth: int) -> frozenset[tuple[int, ...]]:
    """The box descent at a rational base q = A/B, in lowest terms. The
    children's slopes and offsets over A are (B, 0), (A - 2B, B) and
    (B, A - B) times the word's slope, plus its offset. A level is three
    parallel lists: the words' paths, and their slopes and offsets as
    numerators over A^n for words of length n. A box's ends lo and hi are
    then integers, so the test lo <= y <= hi reads lo <= floor(y*A^n) and
    ceil(y*A^n) <= hi, with both roundings made once per level."""
    a, b = q.numerator, q.denominator
    steps = (((0,), b, 0), ((1,), a - 2 * b, b), ((2,), b, a - b))
    yd = y.den
    ya = y.nums[0]
    paths, slopes, offsets = [()], [1], [0]
    for _ in range(depth):
        ya *= a
        y_floor, y_ceil = ya // yd, -(-ya // yd)
        next_paths, next_slopes, next_offsets = [], [], []
        for path, sl, off in zip(paths, slopes, offsets):
            off *= a
            for tail, s, o in steps:
                ca, cb = sl * s, sl * o + off
                if ca > 0:
                    lo, hi = cb, ca + cb
                else:
                    lo, hi = ca + cb, cb
                if lo <= y_floor and y_ceil <= hi:
                    next_paths.append(path + tail)
                    next_slopes.append(ca)
                    next_offsets.append(cb)
        paths, slopes, offsets = next_paths, next_slopes, next_offsets
    return frozenset(paths)


_BOX_BITS = 64


def _lattice_boxes(y: FieldElement, depth: int) -> frozenset[tuple[int, ...]]:
    """The box descent at a base q of degree d >= 2, on integers. A word's
    slope a and offset b are integer vectors in the basis 1, q, ...,
    q^(d-1) over one denominator den, and its box runs from b to a + b. No
    part keeps a matrix: one over_q step per box gives u = a/q over
    den * |p_0|, p_0 the constant coefficient of q's minimal polynomial,
    and with a and b scaled by |p_0| the children are (u, b),
    (a - 2u, u + b) and (u, a - u + b), with slope signs +, -, + times the
    box's own. A level is four parallel lists: paths, slopes, offsets and
    slope signs.

    The children cut their box at e1 = u + b and e2 = a - u + b. A box in
    the level holds y, so y lies between its ends, and only e1 and e2 are
    compared with y: with s the box's slope sign, child 0 holds y iff
    s * (e1 - y) >= 0, child 2 iff s * (e2 - y) <= 0, and child 1 iff
    both. Each comparison reads integer brackets, and the base's exact sign
    where they overlap."""
    base = y.base
    poly = base.min_poly
    scale = abs(poly[0])
    lows, width = base.power_brackets(_BOX_BITS)
    y_nums, y_den = y.nums, y.den
    y_centre = sum(map(mul, y_nums, lows))
    y_radius = width * sum(map(abs, y_nums))

    def versus_y(v: list[int]) -> int:
        """The sign of v / den - y, at the current level's den: exactly,
        the sign of v * y_den - den * y_nums."""
        centre = sum(map(mul, v, lows))
        radius = width * sum(map(abs, v))
        if centre + radius < y_lo:
            return -1
        if centre - radius > y_hi:
            return 1
        return base.sign_of([a * y_den - den * b for a, b in zip(v, y_nums)])

    zero = [0] * base.degree
    paths, slopes, offsets, signs = [()], [[1] + zero[1:]], [zero], [1]
    den = 1
    for _ in range(depth):
        parent_den, den = den, den * scale
        # the integer bracket of 2^64 * den * y
        y_lo = den * (y_centre - y_radius) // y_den
        y_hi = -(-den * (y_centre + y_radius) // y_den)
        next_paths, next_slopes, next_offsets, next_signs = [], [], [], []
        for path, a, b, sign in zip(paths, slopes, offsets, signs):
            u = over_q(poly, a, parent_den)[0]
            if scale != 1:
                a = [c * scale for c in a]
                b = [c * scale for c in b]
            e1 = list(map(add, u, b))
            e2 = [c - w + o for c, w, o in zip(a, u, b)]
            above = sign * versus_y(e1) >= 0
            below = sign * versus_y(e2) <= 0
            if above:
                next_paths.append(path + (0,))
                next_slopes.append(u)
                next_offsets.append(b)
                next_signs.append(sign)
                if below:
                    next_paths.append(path + (1,))
                    next_slopes.append([c - 2 * w for c, w in zip(a, u)])
                    next_offsets.append(e1)
                    next_signs.append(-sign)
            if below:
                next_paths.append(path + (2,))
                next_slopes.append(u)
                next_offsets.append(e2)
                next_signs.append(sign)
        paths, slopes, offsets, signs = next_paths, next_slopes, next_offsets, next_signs
    return frozenset(paths)


def slice_matches_oracle(result: SliceResult, boxes: Set) -> bool:
    """The exact agreement law between the two routes: every surviving
    sequence has a box, and a box without a surviving sequence is the
    doomed spelling of a corner whose successor spelling survives.

    boxes is what geometric_slice_oracle returns, or a plain set of ternary
    Words; a box of any other kind raises ValueError. Boxes and sequences
    are then compared as sets of digit tuples: every surviving sequence has
    a box exactly when the boxes without a surviving sequence leave as many
    boxes as there are sequences."""
    if isinstance(boxes, OracleBoxes):
        paths = boxes.paths
    else:
        if not all(isinstance(w, Word) and w.alphabet is Alphabet.TERNARY for w in boxes):
            raise ValueError("oracle boxes must be ternary words")
        paths = {w.symbols for w in boxes}
    alive = set(result.paths)
    extra = paths - alive
    if len(paths) - len(extra) != len(alive):
        return False
    return all(successor(p, 3) in alive for p in extra)
