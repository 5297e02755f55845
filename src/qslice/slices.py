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
from .words import Alphabet, Word, ternary_code, ternary_digits


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

    ExactlyN: every surviving orbit carries an eternal uniqueness
    certificate and the cylinders are pairwise non-adjacent, so the slice
    has exactly n points; certified reads True. AtLeastN counts
    pairwise-disjoint groups of cylinders, each guaranteed to hold a point.
    UncountablePattern reports an observed doubling pattern (two disjoint
    subtrees that both branch again). certified reads None on every kind
    but ExactlyN.
    """

    kind: ClaimKind
    n: Optional[int] = None
    witness: Optional[tuple] = None

    @property
    def certified(self) -> Optional[bool]:
        return True if self.kind == ClaimKind.ExactlyN else None


def exactly(n: int) -> CardinalityClaim:
    return CardinalityClaim(ClaimKind.ExactlyN, n=n)


def at_least(n: int) -> CardinalityClaim:
    return CardinalityClaim(ClaimKind.AtLeastN, n=n)


def uncountable_pattern(witness: tuple) -> CardinalityClaim:
    return CardinalityClaim(ClaimKind.UncountablePattern, witness=witness)


def unknown_cardinality() -> CardinalityClaim:
    return CardinalityClaim(ClaimKind.Unknown)


@dataclass(frozen=True)
class SliceResult:
    """One slice decision. The surviving ternary branch sequences are held
    as their ternary codes (words.ternary_code), all of one length, in path
    order, and the forks of the walk as (step, code of the forking path):
    codes, length and forks are the constructor fields. paths and
    branch_events are the same as digit tuples, and cylinders as ternary
    Words, each built on first access and kept: a decision itself never
    needs them."""

    base: AlgebraicNumber
    y: FieldElement
    depth: int
    codes: tuple[int, ...]
    length: int
    claim: CardinalityClaim
    forks: tuple[tuple[int, int], ...]
    truncated: bool
    leaf_probes: tuple[UniqueOrbitResult, ...] = ()

    @cached_property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        return tuple(ternary_digits(code, self.length) for code in self.codes)

    @cached_property
    def branch_events(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return tuple((step, ternary_digits(code, step)) for step, code in self.forks)

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


def expansion_point(q: AlgebraicNumber, y: PointLike) -> FieldElement:
    """The height y in [0, 1] as the point y / (q - 1) of the expansion
    interval, whose branch sequences are the slice's cylinders."""
    return _lift_unit_value(q, y) * ternary_branch_system(q).hull_hi


def _doubling_witness(forks) -> Optional[tuple]:
    """The first fork, in walk order, with later forks below two of its
    children: (step, path, the two children's digits), or None. forks are
    (step, code) pairs, so a fork at s2 > s lies below the one at s when
    its code's first s digits are the other's code."""
    for s, p in forks:
        seen_children = set()
        for s2, p2 in forks:
            if s2 > s:
                top = p2 // 3 ** (s2 - s - 1)  # the first s + 1 digits
                if top // 3 == p:
                    seen_children.add(top % 3)
                    if len(seen_children) >= 2:
                        return (s, ternary_digits(p, s), tuple(sorted(seen_children)))
    return None


def _adjacency_groups(codes) -> int:
    """The number of runs of numerically consecutive ternary paths, given
    their codes at one length in strictly ascending order, the order in
    which both walks yield them (dynamics.Frontier)."""
    if not codes:
        return 0
    return 1 + sum(prev + 1 != cur for prev, cur in zip(codes, codes[1:]))


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
    codes, length, forks = tuple(walk.codes), len(walk.sizes) - 1, tuple(walk.forks)
    witness = _doubling_witness(forks)

    if witness is not None:
        claim = uncountable_pattern(witness)
        return SliceResult(
            q, yv, depth, codes, length, claim, forks, walk.truncated
        )
    if walk.truncated:
        return SliceResult(
            q, yv, depth, codes, length, unknown_cardinality(), forks, True
        )

    groups = _adjacency_groups(codes)
    probes = tuple(
        unique_orbit_check(q, point, depth) for point in walk.points()
    )
    certified = all(r.status == UniqueOrbitStatus.UniqueCertified for r in probes)
    claim = exactly(groups) if certified and groups == len(codes) else at_least(groups)
    return SliceResult(
        q, yv, depth, codes, length, claim, forks, False, probes
    )


# ---------------------------------------------------------------------------
# geometric oracle: pure box descent, no dynamics
# ---------------------------------------------------------------------------


class OracleBoxes(Set):
    """The boxes geometric_slice_oracle finds: to a reader, a read-only set
    of ternary Words. It holds the descent's ternary codes
    (words.ternary_code), as the frozenset codes, with their one length;
    paths is the same frozenset as digit tuples, decoded on first read and
    kept, and a Word is built only for a caller that iterates. Set algebra
    with it (-, |, &) gives a plain set of Words, and it is unhashable, like
    set."""

    def __init__(self, codes: frozenset[int], length: int):
        self.codes = codes
        self.length = length

    @cached_property
    def paths(self) -> frozenset[tuple[int, ...]]:
        return frozenset(ternary_digits(code, self.length) for code in self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, w) -> bool:
        return (
            isinstance(w, Word) and w.alphabet is Alphabet.TERNARY and len(w) == self.length
            and ternary_code(w.symbols) in self.codes
        )

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
        return OracleBoxes(_integer_boxes(q.rational_value, yv, depth), depth)
    return OracleBoxes(_lattice_boxes(yv, depth), depth)


def _integer_boxes(q: Fraction, y: FieldElement, depth: int) -> frozenset[int]:
    """The box descent at a rational base q = A/B, in lowest terms, as the
    codes of the words whose box holds y. A level is three parallel lists:
    codes, and slopes and offsets as integers over A^n. Over A^(n+1), with
    a = A * slope, b = A * offset and u = B * slope = a/q, the children are
    those of _lattice_boxes, and only the cuts e1 = u + b and e2 = a - u + b
    are compared with y, exactly: e >= y reads e >= ceil(y*A^(n+1)), and
    e <= y reads e <= floor(y*A^(n+1)), both taken once per level. The
    slope's sign is the box's own."""
    a, b = q.numerator, q.denominator
    yd = y.den
    ya = y.nums[0]
    codes, slopes, offsets = [0], [1], [0]
    for _ in range(depth):
        ya *= a
        y_floor, y_ceil = ya // yd, -(-ya // yd)
        next_codes, next_slopes, next_offsets = [], [], []
        for code, sl, off in zip(codes, slopes, offsets):
            code *= 3
            u, sl, off = sl * b, sl * a, off * a
            e1, e2 = u + off, sl - u + off
            if sl > 0:
                above, below = e1 >= y_ceil, e2 <= y_floor
            else:
                above, below = e1 <= y_floor, e2 >= y_ceil
            if above:
                next_codes.append(code)
                next_slopes.append(u)
                next_offsets.append(off)
                if below:
                    next_codes.append(code + 1)
                    next_slopes.append(sl - 2 * u)
                    next_offsets.append(e1)
            if below:
                next_codes.append(code + 2)
                next_slopes.append(u)
                next_offsets.append(e2)
        codes, slopes, offsets = next_codes, next_slopes, next_offsets
    return frozenset(codes)


_BOX_BITS = 64


def _lattice_boxes(y: FieldElement, depth: int) -> frozenset[int]:
    """The box descent at a base q of degree d >= 2, on integers. A word's
    slope a and offset b are integer vectors in the basis 1, q, ...,
    q^(d-1) over one denominator den, and its box runs from b to a + b. No
    part keeps a matrix: one over_q step per box gives u = a/q over
    den * |p_0|, p_0 the constant coefficient of q's minimal polynomial,
    and with a and b scaled by |p_0| the children are (u, b),
    (a - 2u, u + b) and (u, a - u + b), with slope signs +, -, + times the
    box's own. A level is four parallel lists: the words' ternary codes,
    slopes, offsets and slope signs.

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
    codes, slopes, offsets, signs = [0], [[1] + zero[1:]], [zero], [1]
    den = 1
    for _ in range(depth):
        parent_den, den = den, den * scale
        # the integer bracket of 2^64 * den * y
        y_lo = den * (y_centre - y_radius) // y_den
        y_hi = -(-den * (y_centre + y_radius) // y_den)
        next_codes, next_slopes, next_offsets, next_signs = [], [], [], []
        for code, a, b, sign in zip(codes, slopes, offsets, signs):
            code *= 3
            u = over_q(poly, a, parent_den)[0]
            if scale != 1:
                a = [c * scale for c in a]
                b = [c * scale for c in b]
            e1 = list(map(add, u, b))
            e2 = [c - w + o for c, w, o in zip(a, u, b)]
            above = sign * versus_y(e1) >= 0
            below = sign * versus_y(e2) <= 0
            if above:
                next_codes.append(code)
                next_slopes.append(u)
                next_offsets.append(b)
                next_signs.append(sign)
                if below:
                    next_codes.append(code + 1)
                    next_slopes.append([c - 2 * w for c, w in zip(a, u)])
                    next_offsets.append(e1)
                    next_signs.append(-sign)
            if below:
                next_codes.append(code + 2)
                next_slopes.append(u)
                next_offsets.append(e2)
                next_signs.append(sign)
        codes, slopes, offsets, signs = next_codes, next_slopes, next_offsets, next_signs
    return frozenset(codes)


def slice_matches_oracle(result: SliceResult, boxes: Set) -> bool:
    """The exact agreement law between the two routes: every surviving
    sequence has a box, and a box without a surviving sequence is the
    doomed spelling of a corner whose successor spelling survives.

    boxes is what geometric_slice_oracle returns, or a plain set of ternary
    Words; a box of any other kind raises ValueError. Boxes and sequences
    are then compared as sets of ternary codes, where a code's successor is
    code + 1: every surviving sequence has a box exactly when the boxes
    without a surviving sequence leave as many boxes as there are
    sequences. A code stands for a path only at its length, so a box of
    another length than the sequences is neither a sequence's box nor the
    doomed spelling of one."""
    if isinstance(boxes, OracleBoxes):
        if boxes.length != result.length and boxes.codes:
            return False
        codes = boxes.codes
    else:
        if not all(isinstance(w, Word) and w.alphabet is Alphabet.TERNARY for w in boxes):
            raise ValueError("oracle boxes must be ternary words")
        if any(len(w) != result.length for w in boxes):
            return False
        codes = {ternary_code(w.symbols) for w in boxes}
    alive = set(result.codes)
    extra = codes - alive
    if len(codes) - len(extra) != len(alive):
        return False
    return all(code + 1 in alive for code in extra)
