"""Branch dynamics of base-q digit expansions.

A point can carry several digit expansions in a non-integer base because
inverse branches of x -> qx (mod digits) have overlapping domains. This
module builds the branch system exactly, walks every branch sequence of a
point breadth-first, and walks single orbits with cycle detection: an orbit
that closes into an exact cycle while one branch applies at every step is
certified unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, inf, lcm
from operator import add, mul
from typing import Callable, Optional, Union

from .algebraic import (
    AlgebraicNumber,
    FieldElement,
    Ordering,
    multiplication_rows,
    over_q,
    times_q,
)
from .words import Alphabet, Tail, Word, ternary_digits

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

    @cached_property
    def _rational(self) -> "_Rational":
        """The integer kernel of the orbit walks at rational bases."""
        return _Rational(self)

    @cached_property
    def _lattice(self) -> "_Lattice":
        """The integer kernel of the orbit walks at degree >= 2."""
        return _Lattice(self)


def check_base(q: AlgebraicNumber) -> None:
    """Raise InvalidBase unless 1 < q < 2."""
    if q.compare_rational(1) != Ordering.Greater or q.compare_rational(2) != Ordering.Less:
        raise InvalidBase("base must lie strictly between 1 and 2")


def ternary_branch_system(q: AlgebraicNumber) -> ExpansionSystem:
    """Three branches labelled by ternary digits on [0, 1/(q-1)].

    Labels 0 and 2 scale by q (minus a unit for 2); label 1 is the
    orientation-reversing middle branch defined only on the switch region
    (1/q, 1/(q(q-1))], which is where expansions become ambiguous. The
    domains cover [0, 1/(q-1)] and each branch maps its domain into it, so
    every branch sequence from a point of the hull can be continued.

    The system is built once per base object and kept on it, together with
    its lattice kernel. It is keyed by identity, not by value: an equal base
    built separately gets a system of its own.
    """
    if q._branch_system is None:
        q._branch_system = _build_ternary_system(q)
    return q._branch_system


def _build_ternary_system(q: AlgebraicNumber) -> ExpansionSystem:
    check_base(q)
    g = q.gen()
    one = g.base.one()
    zero = g.base.zero()
    ginv = 1 / g
    top = 1 / (g - 1)
    c = 1 / (2 - g)
    # top / q and -q c by O(d) shift steps, not by dense products
    merge = FieldElement(q, *over_q(q.min_poly, top.nums, top.den))
    slope, den = times_q(q.min_poly, c.nums, c.den)
    f0 = BranchMap(0, g, zero, zero, merge, True, False)
    f1 = BranchMap(1, FieldElement(q, [-n for n in slope], den), top + c, ginv, merge, False, True)
    f2 = BranchMap(2, g, -one, ginv, top, True, True)
    return ExpansionSystem(q, (f0, f1, f2), zero, top, ginv, merge)


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

@dataclass(frozen=True)
class Frontier:
    """The last level of a breadth-first walk: its paths in path order, the
    number of paths at each depth walked, the (step, path) of every fork on
    the way, and whether the walk stopped early. Path order is strictly
    ascending code order: a level's children come parent by parent, each
    in label order, and a child 3 * c + label of code c stays below the
    next parent's children, from 3 * (c + 1). A walk keeps each level as
    parallel lists, the paths beside their integer points, and each path as
    its ternary code (words.ternary_code) at the level's length: codes and
    forks are the fields, and paths is the same as digit tuples, decoded on
    first read and kept. points() builds the level's points as field
    elements, in the same order, only when asked: the rational walk never
    needs them itself."""

    codes: list[int]
    sizes: list[int]
    forks: list[tuple[int, int]]
    truncated: bool
    points: Callable[[], list[FieldElement]]

    @cached_property
    def paths(self) -> list[tuple[int, ...]]:
        length = len(self.sizes) - 1
        return [ternary_digits(code, length) for code in self.codes]


def enumerate_orbits(
    sys: ExpansionSystem, x: PointLike, depth: int, max_cylinders: Optional[int] = None
) -> Frontier:
    """Walk every applicable branch sequence from x for depth steps,
    breadth-first, each point's children in label order so that every level
    stays in path order; a path forks where two or more branches apply.
    Given max_cylinders, the walk stops, truncated, after the first step
    whose level holds more paths than that.

    At rational bases the walk runs on integers, elsewhere on the integer
    vectors of the system's lattice kernel. The branches cover the
    expansion interval, so a point with no applicable branch is a fault of
    the program: it raises ValueError, as the single-orbit walk does."""
    p = sys.lift(x)
    cap = inf if max_cylinders is None else max_cylinders
    if sys.base.is_rational:
        return _integer_walk(sys, p, depth, cap)
    return _lattice_walk(sys, p, depth, cap)


def _first_above(lo: tuple[int, int], closed: bool, den: int) -> int:
    """Least integer n with n/den > lo, or >= lo when closed, for lo given
    as (numerator, denominator)."""
    t = lo[0] * den
    return -(-t // lo[1]) if closed else t // lo[1] + 1


def _last_below(hi: tuple[int, int], closed: bool, den: int) -> int:
    """Greatest integer n with n/den < hi, or <= hi when closed, for hi
    given as (numerator, denominator)."""
    t = hi[0] * den
    return t // hi[1] if closed else -(-t // hi[1]) - 1


class _Rational:
    """The branches of a system at a rational base, acting on integers.

    A point is n / den. With L the least common denominator of the branch
    slopes and offsets, a branch s*x + o sends n / den to
    ((s*L)*n + (o*L)*den) / (den*L). Each domain end is scaled by den and
    rounded inward, so applicability is two integer comparisons."""

    def __init__(self, sys: ExpansionSystem):
        self.base = sys.base
        self.scale = lcm(*(e.den for m in sys.maps for e in (m.slope, m.offset)))
        self.maps = [
            (m.label, m.slope.nums[0] * (self.scale // m.slope.den),
             m.offset.nums[0] * (self.scale // m.offset.den),
             (m.lo.nums[0], m.lo.den), m.lo_closed, (m.hi.nums[0], m.hi.den), m.hi_closed)
            for m in sys.maps
        ]

    def lift(self, p: FieldElement) -> tuple[int, int]:
        return p.nums[0], p.den

    def point(self, n: int, den: int) -> FieldElement:
        return FieldElement(self.base, (n,), den)

    def branches(self, den: int) -> list:
        """Each branch's slope, its offset over den, and the least and
        greatest numerators over den that its domain holds."""
        return [
            (label, s, o * den, _first_above(lo, lo_closed, den), _last_below(hi, hi_closed, den))
            for label, s, o, lo, lo_closed, hi, hi_closed in self.maps
        ]

    def children(self, n: int, den: int, branches: list) -> list[tuple[int, int]]:
        """(label, image numerator over den * scale) for every branch whose
        domain holds n / den, in label order; branches is branches(den)."""
        return [(label, s * n + od) for label, s, od, first, last in branches if first <= n <= last]

    @staticmethod
    def key(n: int, den: int) -> tuple[int, int]:
        g = gcd(n, den)
        return n // g, den // g


def _integer_walk(
    sys: ExpansionSystem, x: FieldElement, depth: int, cap: float
) -> Frontier:
    """enumerate_orbits at a rational base, on the rational kernel. A
    level is two parallel lists, the paths' codes and the numerators of
    their points, all over one denominator den(x)*L^step. The kernel's
    applicability test is inlined here, for the three ternary branches in
    label order: branches 0 and 2 both have slope q, so they share one
    product."""
    kernel = sys._rational
    n, den = kernel.lift(x)
    codes, nums = [0], [n]
    sizes = [1]
    forks: list[tuple[int, int]] = []
    truncated = False
    for step in range(depth):
        (_, s, o0, lo0, hi0), (_, s1, o1, lo1, hi1), (_, _, o2, lo2, hi2) = kernel.branches(den)
        next_codes, next_nums = [], []
        add_code, add_num = next_codes.append, next_nums.append
        for code, n in zip(codes, nums):
            size = len(next_codes)
            child, sn = 3 * code, s * n
            if lo0 <= n <= hi0:
                add_code(child)
                add_num(sn + o0)
            if lo1 <= n <= hi1:
                add_code(child + 1)
                add_num(s1 * n + o1)
            if lo2 <= n <= hi2:
                add_code(child + 2)
                add_num(sn + o2)
            kids = len(next_codes) - size
            if kids >= 2:
                forks.append((step, code))
            elif not kids:
                raise ValueError("point escaped the expansion interval")
        codes, nums = next_codes, next_nums
        den *= kernel.scale
        sizes.append(len(codes))
        if len(codes) > cap:
            truncated = True
            break
    return Frontier(
        codes, sizes, forks, truncated, lambda: [kernel.point(n, den) for n in nums],
    )


# ---------------------------------------------------------------------------
# the integer lattice kernel at algebraic bases
# ---------------------------------------------------------------------------

_BRACKET_BITS = 64


class _Lattice:
    """The branches of the ternary system at a base q of degree d >= 2,
    acting on integer vectors.

    A point is v / den with v an integer vector in the basis 1, q, ...,
    q^(d-1); every branch sends it to an integer vector over den * L. The
    scale L is the least common multiple of lead, the leading coefficient
    of q's minimal polynomial, and the denominators of the middle slope
    s = -q/(2-q) times each basis vector; L times a branch offset is
    integral over any den that holds the offsets' denominators, as every
    den here does. At Pisot-unit bases L = 1 and den never grows.

    Branches 0 and 2 have slope q and keep no matrix: q * v / den is
    times_q, v shifted up and its top coefficient reduced by the minimal
    polynomial over den * lead, in O(d), and both images scale that one
    product by L / lead. The middle branch applies only in the switch
    region and keeps the integer matrix of s scaled by L, from
    multiplication_rows.

    Domain tests read integer brackets rounded outward from exact
    enclosures: 2^64 q^j lies in [a_j, a_j + w], so 2^64 * den * x lies
    within w * sum|v_j| of the dot product v.a, and each domain end e has
    a bracket of 2^64 * den * e per den. A test the brackets leave open,
    equality at an end included, is decided by the base's exact sign of
    the difference."""

    def __init__(self, sys: ExpansionSystem):
        base = sys.base
        self.brackets, self.spread = base.power_brackets(_BRACKET_BITS)
        self.base = base
        self.poly = base.min_poly
        q = sys.q()
        rows, mden = multiplication_rows(next(m.slope for m in sys.maps if m.slope != q))
        self.scale = lcm(self.poly[-1], mden)
        self.shift_scale = self.scale // self.poly[-1]
        rows = [[c * (self.scale // mden) for c in row] for row in rows]
        self.offset_den = lcm(*(m.offset.den for m in sys.maps))
        self.maps = [
            (
                m.label,
                None if m.slope == q else rows,
                [c * (self.offset_den // m.offset.den) * self.scale for c in m.offset.nums],
                self._end(m.lo, m.lo_closed),
                self._end(m.hi, m.hi_closed),
            )
            for m in sys.maps
        ]

    def _end(self, end: FieldElement, closed: bool) -> tuple:
        """A domain end e with the centre and radius of its bracket: 2^64 e
        lies within radius / den of centre / den."""
        centre = sum(map(mul, end.nums, self.brackets))
        return centre, self.spread * sum(map(abs, end.nums)), end.den, end.nums, closed

    def lift(self, p: FieldElement) -> tuple[tuple[int, ...], int]:
        den = lcm(self.offset_den, p.den)
        return tuple(c * (den // p.den) for c in p.nums), den

    def point(self, v: tuple[int, ...], den: int) -> FieldElement:
        return FieldElement(self.base, v, den)

    def branches(self, den: int) -> list:
        """Each branch's matrix (None for slope q), its offset over den,
        and its domain ends with the integer brackets of 2^64 * den * end.
        The kernel keeps no table per den: a walk or a probe builds one
        for each den it meets."""
        times = den // self.offset_den
        return [
            (label, rows, [c * times for c in off], _scaled(lo, den), _scaled(hi, den))
            for label, rows, off, lo, hi in self.maps
        ]

    def children(
        self, v: tuple[int, ...], den: int, branches: list
    ) -> list[tuple[int, tuple[int, ...]]]:
        """(label, image vector over den * scale) for every branch whose
        domain holds v / den, in label order; branches is branches(den)."""
        centre = sum(map(mul, v, self.brackets))
        radius = self.spread * sum(map(abs, v))
        least, most = centre - radius, centre + radius
        out = []
        qv = None  # q * v over den * scale, shared by branches 0 and 2
        for label, rows, off, (lo_a, lo_b, lo), (hi_a, hi_b, hi) in branches:
            if (
                (least > lo_b or (most >= lo_a and self._side(v, den, lo, 1)))
                and (most < hi_a or (least <= hi_b and self._side(v, den, hi, -1)))
            ):
                if rows is not None:
                    out.append((label, tuple(sum(map(mul, row, v)) + o for row, o in zip(rows, off))))
                    continue
                if qv is None:
                    qv = times_q(self.poly, v, den)[0]
                    if self.shift_scale != 1:
                        qv = [c * self.shift_scale for c in qv]
                out.append((label, tuple(map(add, qv, off))))
        return out

    @staticmethod
    def key(v: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
        g = gcd(den, *v)
        return tuple(c // g for c in v), den // g

    def _side(self, v: tuple[int, ...], den: int, end: tuple, side: int) -> bool:
        """Whether v / den lies strictly on the given side of the end
        (end_nums, end_den, closed) (1 above, -1 below), or on it when
        closed: the exact fallback, the sign of
        (v * end_den - den * end_nums) / (den * end_den)."""
        nums, end_den, closed = end
        s = self.base.sign_of([a * end_den - den * b for a, b in zip(v, nums)])
        return s == side or (closed and s == 0)


def _scaled(end: tuple, den: int) -> tuple:
    """The integer bracket of 2^64 * den * e for an end from _Lattice._end,
    with the end itself for _Lattice._side."""
    centre, radius, end_den, nums, closed = end
    return (
        (den * (centre - radius)) // end_den, -(-den * (centre + radius) // end_den),
        (nums, end_den, closed),
    )


def _lattice_walk(
    sys: ExpansionSystem, x: FieldElement, depth: int, cap: float
) -> Frontier:
    """enumerate_orbits at a base of degree >= 2, on the lattice kernel. A
    level is two parallel lists, the paths' codes and the integer vectors
    of their points over the level's den. Every path that reaches a point
    shares one expansion of it: expanded holds, for each vector met over
    the current den, its children as (label, image). Where the kernel's
    scale is 1, as at the Pisot units, den never changes and each distinct
    point is expanded once per walk."""
    lattice = sys._lattice
    v, den = lattice.lift(x)
    branches, expanded = lattice.branches(den), {}
    codes, vecs = [0], [v]
    sizes = [1]
    forks: list[tuple[int, int]] = []
    truncated = False
    for step in range(depth):
        next_codes, next_vecs = [], []
        for code, v in zip(codes, vecs):
            kids = expanded.get(v)
            if kids is None:
                kids = expanded[v] = lattice.children(v, den, branches)
            if len(kids) >= 2:
                forks.append((step, code))
            elif not kids:
                raise ValueError("point escaped the expansion interval")
            child = 3 * code
            for label, w in kids:
                next_codes.append(child + label)
                next_vecs.append(w)
        codes, vecs = next_codes, next_vecs
        if lattice.scale != 1:
            den *= lattice.scale
            branches, expanded = lattice.branches(den), {}
        sizes.append(len(codes))
        if len(codes) > cap:
            truncated = True
            break
    return Frontier(
        codes, sizes, forks, truncated, lambda: [lattice.point(v, den) for v in vecs],
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
    route: Optional[str] = None  # "periodic-trajectory" when certified


def unique_orbit_check(q: AlgebraicNumber, x: PointLike, depth: int) -> UniqueOrbitResult:
    """Decide whether x has a single branch sequence in the ternary system.

    The walk follows the orbit of x while exactly one branch applies. An
    orbit that returns exactly to a visited point never meets the switch
    region: it is certified unique eternally, by route "periodic-trajectory".
    Otherwise the walk reports the first branch point or gives up at the
    depth bound.
    """
    sys = ternary_branch_system(q)
    return _kernel_orbit(sys._rational if q.is_rational else sys._lattice, sys.lift(x), depth)


def _single_orbit(p, children, key, depth: int) -> UniqueOrbitResult:
    """Walk one orbit from p while exactly one branch applies, keying the
    points it visits by key(point) to find a cycle. children(point) lists
    (label, image) for every branch that applies there."""
    seen: dict = {}
    digits: list[int] = []
    for step in range(depth):
        kids = children(p)
        if len(kids) == 0:
            raise ValueError("point escaped the expansion interval")
        if len(kids) > 1:
            return UniqueOrbitResult(
                UniqueOrbitStatus.BranchFoundAt,
                branch_step=step,
                digits=Word(Alphabet.TERNARY, tuple(digits)),
            )
        k = key(p)
        if k in seen:
            start = seen[k]
            return UniqueOrbitResult(
                UniqueOrbitStatus.UniqueCertified,
                digits=Word(Alphabet.TERNARY, tuple(digits)),
                cycle_start=start,
                cycle_length=step - start,
                route="periodic-trajectory",
            )
        seen[k] = step
        label, p = kids[0]
        digits.append(label)

    return UniqueOrbitResult(
        UniqueOrbitStatus.UnknownAtDepth,
        digits=Word(Alphabet.TERNARY, tuple(digits)),
    )


def _kernel_orbit(kernel, p: FieldElement, depth: int) -> UniqueOrbitResult:
    """The single-orbit walk on an integer kernel, rational or lattice. A
    point is a (numerators, den) pair, keyed by its reduced form so that
    equal values meet. Where the kernel's scale is 1, as at the Pisot
    units, den never changes: a point is then its numerators over p's
    lifted den, and equal values have equal numerators, so they are the
    key."""
    v, den = kernel.lift(p)
    if kernel.scale == 1:
        branches = kernel.branches(den)
        return _single_orbit(v, lambda v: kernel.children(v, den, branches), lambda v: v, depth)

    tables: dict = {}  # den -> kernel.branches(den), for the dens this orbit meets

    def children(point):
        v, den = point
        if den not in tables:
            tables[den] = kernel.branches(den)
        return [
            (label, (w, den * kernel.scale))
            for label, w in kernel.children(v, den, tables[den])
        ]

    return _single_orbit((v, den), children, lambda point: kernel.key(*point), depth)


def tail_is_orbit(sys: ExpansionSystem, t: Tail, x: PointLike) -> bool:
    """Check exactly whether the infinite digit string t is an applicable
    branch sequence at x: walk the preperiod, then confirm the period closes
    into an exact cycle."""
    period = Word(t.alphabet, t.period)
    try:
        first = p = apply_word(sys, Word(t.alphabet, t.preperiod), x)
        while True:
            p = apply_word(sys, period, p)
            if p == first:
                return True
            # expanding maps push any non-closing trajectory out of the
            # bounded domains, so the walk is guaranteed to terminate
    except OutOfDomain:
        return False
