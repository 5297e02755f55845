"""Branch dynamics of base-q digit expansions.

A point can carry several digit expansions in a non-integer base because
inverse branches of x -> qx (mod digits) have overlapping domains. This
module builds the branch system exactly, walks every branch sequence of a
point breadth-first, walks single orbits with cycle detection, and
certifies uniqueness either by exact periodicity outside the overlap region
or by membership of a known expansion in a run-limited shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import inf, lcm
from typing import Callable, Optional, Union

from .algebraic import (
    AlgebraicNumber,
    FieldElement,
    Ordering,
    bonacci_root,
    compare_reals,
)
from .words import Alphabet, Tail, Word, member, project_q, run_limited, run_limited_strict

PointLike = Union[FieldElement, Fraction, int]


class InvalidBase(ValueError):
    pass


class OutOfDomain(ValueError):
    """Raised when a branch map is applied outside its domain.

    `endpoint` names the violated side: "lo" or "hi".
    """

    def __init__(self, branch: int, endpoint: str):
        super().__init__(f"branch {branch} not applicable ({endpoint} side)")
        self.branch = branch
        self.endpoint = endpoint


@dataclass(frozen=True)
class BranchMap:
    label: int
    slope: FieldElement
    offset: FieldElement
    lo: FieldElement
    hi: FieldElement
    lo_closed: bool
    hi_closed: bool

    def contains(self, x: FieldElement) -> bool:
        above = x > self.lo or (self.lo_closed and x == self.lo)
        below = x < self.hi or (self.hi_closed and x == self.hi)
        return above and below

    def violated_side(self, x: FieldElement) -> str:
        if not (x > self.lo or (self.lo_closed and x == self.lo)):
            return "lo"
        return "hi"

    def __call__(self, x: FieldElement) -> FieldElement:
        return self.slope * x + self.offset


@dataclass(frozen=True)
class ExpansionSystem:
    """A finite family of expanding affine branches with exact domains."""

    base: AlgebraicNumber
    maps: tuple[BranchMap, ...]
    hull_lo: FieldElement
    hull_hi: FieldElement
    # smallest interval containing every point with >= 2 applicable branches
    switch_lo: FieldElement
    switch_hi: FieldElement

    def q(self) -> FieldElement:
        return self.base.gen()

    def lift(self, x: PointLike) -> FieldElement:
        if isinstance(x, FieldElement):
            if x.base is self.base or x.base == self.base:
                return x
            raise InvalidBase("point belongs to a different field")
        return self.base.rational(Fraction(x))

    def branch(self, label: int) -> BranchMap:
        for m in self.maps:
            if m.label == label:
                return m
        raise KeyError(label)

    def applicable(self, x: PointLike) -> list[int]:
        p = self.lift(x)
        return [m.label for m in self.maps if m.contains(p)]

    def in_switch_region(self, x: PointLike) -> bool:
        p = self.lift(x)
        return self.switch_lo <= p <= self.switch_hi


def check_base(q: AlgebraicNumber) -> None:
    """Raise InvalidBase unless 1 < q < 2."""
    one = AlgebraicNumber.from_rational(1)
    two = AlgebraicNumber.from_rational(2)
    if compare_reals(q, one) != Ordering.Greater or compare_reals(q, two) != Ordering.Less:
        raise InvalidBase("base must lie strictly between 1 and 2")


def ternary_branch_system(q: AlgebraicNumber) -> ExpansionSystem:
    """Three branches labelled by ternary digits on [0, 1/(q-1)].

    Labels 0 and 2 scale by q (minus a unit for 2); label 1 is the
    orientation-reversing middle branch defined only on the switch region
    (1/q, 1/(q(q-1))], which is where expansions become ambiguous. The
    domains cover [0, 1/(q-1)] and each branch maps its domain into it, so
    every branch sequence from a point of the hull can be continued.
    """
    check_base(q)
    g = q.gen()
    one = g.base.one()
    zero = g.base.zero()
    top = 1 / (g - 1)
    merge = 1 / (g * (g - 1))
    f0 = BranchMap(0, g, zero, zero, merge, True, False)
    f1 = BranchMap(
        1, -g / (2 - g), top + 1 / (2 - g), 1 / g, merge, False, True
    )
    f2 = BranchMap(2, g, -one, 1 / g, top, True, True)
    return ExpansionSystem(q, (f0, f1, f2), zero, top, 1 / g, merge)


def apply_map(sys: ExpansionSystem, label: int, x: PointLike) -> FieldElement:
    p = sys.lift(x)
    m = sys.branch(label)
    if not m.contains(p):
        raise OutOfDomain(label, m.violated_side(p))
    return m(p)


def apply_word(sys: ExpansionSystem, w: Word, x: PointLike) -> FieldElement:
    p = sys.lift(x)
    for s in w:
        p = apply_map(sys, s, p)
    return p


def word_is_applicable(sys: ExpansionSystem, w: Word, x: PointLike) -> bool:
    try:
        apply_word(sys, w, x)
        return True
    except OutOfDomain:
        return False


# ---------------------------------------------------------------------------
# the breadth-first orbit walk
# ---------------------------------------------------------------------------

Level = list[tuple[tuple[int, ...], FieldElement]]  # (path, point), in path order


def orbit_step(sys: ExpansionSystem, level: Level) -> tuple[Level, list[tuple[int, ...]]]:
    """One breadth-first step: take every applicable branch of every entry,
    children in label order so that the next level stays in path order.
    Also returns the paths that forked (two or more applicable branches)."""
    nxt: Level = []
    forked: list[tuple[int, ...]] = []
    for path, p in level:
        labels = sys.applicable(p)
        if len(labels) >= 2:
            forked.append(path)
        for lab in labels:
            nxt.append((path + (lab,), sys.branch(lab)(p)))
    return nxt, forked


@dataclass(frozen=True)
class Frontier:
    """The last level of a breadth-first walk: its paths in path order, the
    number of paths at each depth walked, the (step, path) of every fork on
    the way, and whether the walk stopped early. points() builds the level's
    points, in the same order, only when asked: the rational walk never
    needs them itself."""

    paths: list[tuple[int, ...]]
    sizes: list[int]
    events: list[tuple[int, tuple[int, ...]]]
    truncated: bool
    points: Callable[[], list[FieldElement]]


def enumerate_orbits(
    sys: ExpansionSystem, x: PointLike, depth: int, max_cylinders: Optional[int] = None
) -> Frontier:
    """Walk every applicable branch sequence from x for depth steps, as
    repeated orbit_step calls would. Given max_cylinders, the walk stops,
    truncated, after the first step whose level holds more paths than that.

    At rational bases the walk runs on integers; elsewhere it is the
    orbit_step loop itself."""
    p = sys.lift(x)
    cap = inf if max_cylinders is None else max_cylinders
    if sys.base.is_rational:
        return _integer_walk(sys, p.as_fraction(), depth, cap)
    level: Level = [((), p)]
    sizes = [1]
    events: list[tuple[int, tuple[int, ...]]] = []
    truncated = False
    for step in range(depth):
        level, forked = orbit_step(sys, level)
        events.extend((step, path) for path in forked)
        sizes.append(len(level))
        if len(level) > cap:
            truncated = True
            break
    return Frontier(
        [path for path, _ in level], sizes, events, truncated,
        lambda: [pt for _, pt in level],
    )


def _first_above(lo: Fraction, closed: bool, den: int) -> int:
    """Least integer n with n/den > lo, or >= lo when closed."""
    t = lo.numerator * den
    return -(-t // lo.denominator) if closed else t // lo.denominator + 1


def _last_below(hi: Fraction, closed: bool, den: int) -> int:
    """Greatest integer n with n/den < hi, or <= hi when closed."""
    t = hi.numerator * den
    return t // hi.denominator if closed else -(-t // hi.denominator) - 1


def _integer_walk(
    sys: ExpansionSystem, x: Fraction, depth: int, cap: float
) -> Frontier:
    """enumerate_orbits at a rational base. A level's points are integers n
    over one denominator den(x)*L^step, where L is the least common
    denominator of the branch slopes and offsets; a branch s*x + o sends
    n/D to ((s*L)*n + (o*L)*D) / (D*L). Each domain end is scaled by D and
    rounded inward once per level, so applicability is two integer
    comparisons."""
    coeffs = [(m.slope.as_fraction(), m.offset.as_fraction()) for m in sys.maps]
    scale = lcm(*(c.denominator for pair in coeffs for c in pair))
    table = [
        (m.label, int(s * scale), int(o * scale), m.lo.as_fraction(), m.lo_closed,
         m.hi.as_fraction(), m.hi_closed)
        for m, (s, o) in zip(sys.maps, coeffs)
    ]
    level = [((), x.numerator)]
    den = x.denominator
    sizes = [1]
    events: list[tuple[int, tuple[int, ...]]] = []
    truncated = False
    for step in range(depth):
        branches = [
            (lab, s, o * den, _first_above(lo, lc, den), _last_below(hi, hc, den))
            for lab, s, o, lo, lc, hi, hc in table
        ]
        nxt = []
        for path, n in level:
            size = len(nxt)
            for lab, s, od, first, last in branches:
                if first <= n <= last:
                    nxt.append((path + (lab,), s * n + od))
            if len(nxt) - size >= 2:
                events.append((step, path))
        level = nxt
        den *= scale
        sizes.append(len(level))
        if len(level) > cap:
            truncated = True
            break
    base = sys.base
    return Frontier(
        [path for path, _ in level], sizes, events, truncated,
        lambda: [base.rational(Fraction(n, den)) for _, n in level],
    )


# ---------------------------------------------------------------------------
# uniqueness certification
# ---------------------------------------------------------------------------


class UniqueOrbitStatus(Enum):
    UniqueCertified = "UniqueCertified"
    BranchFoundAt = "BranchFoundAt"
    UnknownAtDepth = "UnknownAtDepth"


@dataclass(frozen=True)
class UniqueOrbitResult:
    status: UniqueOrbitStatus
    branch_step: Optional[int] = None
    digits: Optional[Word] = None
    cycle_start: Optional[int] = None
    cycle_length: Optional[int] = None
    route: Optional[str] = None  # "periodic-trajectory" | "shift-membership"
    shift_k: Optional[int] = None


_SHIFT_CERT_MAX_K = 12


def _shift_certificate_k(q: AlgebraicNumber, expansion: Tail) -> Optional[int]:
    """Smallest k such that the expansion provably has no sibling: the
    expansion lies in the k-run-limited shift and q exceeds the k-th
    bonacci root (equality allowed for the strict family)."""
    for k in range(2, _SHIFT_CERT_MAX_K + 1):
        rel = compare_reals(q, bonacci_root(k))
        if rel == Ordering.Greater and member(run_limited(k), expansion):
            return k
        if rel == Ordering.Equal and member(run_limited_strict(k), expansion):
            return k
    return None


def unique_orbit_check(
    q: AlgebraicNumber,
    x: PointLike,
    depth: int,
    expansion: Optional[Tail] = None,
) -> UniqueOrbitResult:
    """Decide whether x has a single branch sequence in the ternary system.

    Certification routes: a known binary expansion of x lying in a
    run-limited shift below the base (eternal), or an exactly periodic
    trajectory that never meets the switch region (eternal). Otherwise the
    walk reports the first branch point or gives up at the depth bound.
    """
    sys = ternary_branch_system(q)
    p = sys.lift(x)

    if expansion is not None:
        if expansion.alphabet is not Alphabet.BINARY:
            raise ValueError("expansion must be a binary word")
        if project_q(q, expansion) != p:
            raise ValueError("expansion does not evaluate to x")
        k = _shift_certificate_k(q, expansion)
        if k is not None:
            return UniqueOrbitResult(
                UniqueOrbitStatus.UniqueCertified,
                route="shift-membership",
                shift_k=k,
            )

    seen: dict[FieldElement, int] = {}
    digits: list[int] = []
    for step in range(depth):
        labels = sys.applicable(p)
        if len(labels) == 0:
            raise ValueError("point escaped the expansion interval")
        if len(labels) > 1:
            return UniqueOrbitResult(
                UniqueOrbitStatus.BranchFoundAt,
                branch_step=step,
                digits=Word(Alphabet.TERNARY, tuple(digits)),
            )
        if p in seen:
            start = seen[p]
            return UniqueOrbitResult(
                UniqueOrbitStatus.UniqueCertified,
                digits=Word(Alphabet.TERNARY, tuple(digits)),
                cycle_start=start,
                cycle_length=step - start,
                route="periodic-trajectory",
            )
        seen[p] = step
        digits.append(labels[0])
        p = sys.branch(labels[0])(p)

    return UniqueOrbitResult(
        UniqueOrbitStatus.UnknownAtDepth,
        digits=Word(Alphabet.TERNARY, tuple(digits)),
    )


def tail_is_orbit(sys: ExpansionSystem, t: Tail, x: PointLike) -> bool:
    """Check exactly whether the infinite digit string t is an applicable
    branch sequence at x: walk the preperiod, then confirm the period closes
    into an exact cycle."""
    p = sys.lift(x)
    try:
        for i in range(len(t.preperiod)):
            p = apply_map(sys, t.symbol_at(i), p)
        first = p
        while True:
            for j in range(len(t.period)):
                p = apply_map(
                    sys, t.symbol_at(len(t.preperiod) + j), p
                )
            if p == first:
                return True
            # expanding maps push any non-closing trajectory out of the
            # bounded domains, so the walk is guaranteed to terminate
    except OutOfDomain:
        return False
