"""Gap structure and thickness of digit-set fractals, with certificates.

The signed-digit attractor of x -> (x + d)/q, d in {-1, 0, 1}, fills an
interval once double digits are grouped: five two-digit maps cover the hull.
That cover drives a canonical expansion of 1, whose zero pattern seeds a
family of binary sequences with controlled gaps. Together with a run-limited
shift this yields two linked Cantor sets whose thickness product exceeds 1,
certifying nonempty intersection and, downstream, a three-point slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Optional

from .algebraic import (
    AlgebraicNumber,
    FieldElement,
    Ordering,
    bonacci_orderings,
    bonacci_root,
    compare_reals,
)
from .certificates import Certificate, IntervalCheck, bracket, exact_check
from .slices import SliceResult, compute_slice
from .words import MAX_RUN_BOUND, Alphabet, Tail, Word, check_run_bound, project_q, tail

AQ_GAP_MARGIN = 14  # expansion digits of 1 computed past the aq gap level
WITNESS_BUDGET = 1000  # three-orbit pair-search steps


class ThicknessError(ValueError):
    pass


class BaseTooSmall(ThicknessError):
    pass


class RefinementBudgetExceeded(ThicknessError):
    pass


# ---------------------------------------------------------------------------
# signed-digit hull and the five-map double-digit cover
# ---------------------------------------------------------------------------

# double digits (first, second) with at most one nonzero entry, in increasing
# order of the value first*q + second
W2 = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))


def h_q_interval(q: AlgebraicNumber) -> tuple[FieldElement, FieldElement]:
    """Hull [-h, h] of the signed-digit attractor, h = q/(q^2 - 1)."""
    g = q.gen()
    h = g / (g * g - 1)
    return -h, h


def w2_cover_check(q: AlgebraicNumber) -> list[IntervalCheck]:
    """Prove that the five double-digit images tile the signed hull.

    Each pair w = (i1, i2) maps the hull to (hull + i2 + q*i1)/q^2; the
    checks record that consecutive images overlap and the ends match the
    hull exactly.
    """
    g = q.gen()
    lo, hi = h_q_interval(q)
    qq = g * g
    pieces = []
    for i1, i2 in W2:
        shift = i2 + g * i1
        pieces.append(((lo + shift) / qq, (hi + shift) / qq))

    checks = [
        exact_check("left-end-flush", "le", pieces[0][0] - lo, 0),
        exact_check("left-end-flush-rev", "le", lo - pieces[0][0], 0),
        exact_check("right-end-flush", "le", pieces[-1][1] - hi, 0),
        exact_check("right-end-flush-rev", "le", hi - pieces[-1][1], 0),
    ]
    for i in range(len(pieces) - 1):
        checks.append(
            exact_check(f"overlap-{i}-{i + 1}", "le", pieces[i + 1][0] - pieces[i][1], 0)
        )
    return checks


# ---------------------------------------------------------------------------
# canonical signed expansion of 1
# ---------------------------------------------------------------------------


def prefix_run_length(q: AlgebraicNumber) -> int:
    """Length of the leading run of ones in the canonical expansion of 1.

    Zero up to the golden ratio, then constant k between consecutive
    k-bonacci roots: the largest k >= 2 with q above the k-bonacci root, or
    0 when there is none. Resolved by exact signs, never by floats.
    """
    for k, rel in bonacci_orderings(q):
        if rel != Ordering.Greater:
            return 0 if k == 2 else k - 1
        if k > MAX_RUN_BOUND:
            raise ThicknessError("base too close to 2 for the prefix table")


def fixed_expansion_of_one(q: AlgebraicNumber, length: int) -> Word:
    """Deterministic signed-digit expansion c with sum c_i q^-i = 1.

    A run of ones brings the residual into the hull, then double digits are
    consumed greedily in the fixed W2 order. The residual x_n satisfies
    1 - sum_{i<=n} c_i q^-i = q^-n x_n with |x_n| <= h at every pair
    boundary of the double-digit phase (n = m, m + 2, ... for a prefix run
    of length m); inside a pair only |x_n| <= q h + 1 holds.
    """
    g = q.gen()
    _, h = h_q_interval(q)
    m = prefix_run_length(q)
    digits: list[int] = []
    x = g.base.one()
    for _ in range(m):
        digits.append(1)
        x = g * x - 1
    if not (-h <= x <= h):
        raise ThicknessError("prefix run failed to enter the hull")
    while len(digits) < length:
        for i1, i2 in W2:
            nxt = g * (g * x - i1) - i2
            if -h <= nxt <= h:
                digits.extend((i1, i2))
                x = nxt
                break
        else:
            raise ThicknessError("no double digit applies; cover violated")
    return Word(Alphabet.SIGNED, tuple(digits[:length]))


# ---------------------------------------------------------------------------
# the branching family built on the zeros of the canonical expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AqTemplate:
    """Binary sequences a with a_j = 1 where the canonical expansion c of 1
    has c_j = 1, a_j = 0 where c_j = -1, prescribed bits at odd-numbered
    zeros and free bits at even-numbered zeros of c. So a - c is binary
    too, and its value sits exactly one unit below a's."""

    base: AlgebraicNumber
    bits: tuple[Optional[int], ...]  # None marks a free position
    free_positions: tuple[int, ...]  # 0-indexed

    def free_below(self, k: int) -> tuple[int, ...]:
        return tuple(p for p in self.free_positions if p < k)

    @cached_property
    def value_terms(
        self,
    ) -> tuple[FieldElement, tuple[FieldElement, ...], tuple[FieldElement, ...], FieldElement]:
        """The exact parts of a value that every assignment shares: the sum
        of the fixed one-bits, each position's weight q^-(pos+1), the total
        weight of the free positions from each free index on, and a bound
        on the digits past the stored template."""
        g = self.base.gen()
        ginv = 1 / g
        powers = [g.base.one()]
        for _ in self.bits:
            powers.append(powers[-1] * ginv)
        weights = powers[1:]
        fixed = g.base.zero()
        for w, bit in zip(weights, self.bits):
            if bit == 1:
                fixed = fixed + w
        suffix = [g.base.zero()]
        for pos in reversed(self.free_positions):
            suffix.append(suffix[-1] + weights[pos])
        tail_bound = powers[-1] / (g - 1)
        return fixed, tuple(weights), tuple(reversed(suffix)), tail_bound

    @cached_property
    def hull(self) -> tuple[tuple[FieldElement, FieldElement], tuple[FieldElement, FieldElement]]:
        """Bracketed ends of the family: (F, F + T) and (F + S_0, F + S_0 + T)."""
        fixed, _, free_suffix, tail_bound = self.value_terms
        top = fixed + free_suffix[0]
        return (fixed, fixed + tail_bound), (top, top + tail_bound)

    def gap_laws(self, level: int) -> Iterator[GapLaw]:
        """One GapLaw per free position p below the level, in increasing p.

        With F the sum of the fixed one-bits, A the weight of the earlier
        free one-bits, w_p the weight of p, S the total weight of the free
        positions after p and T the tail bound (value_terms), the values
        whose bit at p is 0 span [F + A, F + A + S] and those whose bit is
        1 span [F + A + w_p, F + A + w_p + S], each end within T. So the
        2^idx gaps at the idx-th free position are translates by A of the
        leftmost, F + S to F + w_p, with level p + 2 and size w_p - S -+ T.
        The next gap at least as large on either side, or else the hull end,
        lies within T of that side's outer end: the bridge bound is S - T.
        Free positions lie at least two apart and q exceeds the 9-bonacci
        root, so each free weight exceeds twice the total weight after it by
        far more than T: a position's gaps outsize any later one's."""
        fixed, weights, free_suffix, tail = self.value_terms
        for idx, pos in enumerate(self.free_below(level)):
            w, s = weights[pos], free_suffix[idx + 1]
            left, right, gap = fixed + s, fixed + w, w - s
            yield GapLaw({"free_position": pos}, pos + 2, 2**idx, (left, left + tail),
                         (right, right + tail), (gap - tail, gap + tail), s - tail)


def build_aq_prefixes(q: AlgebraicNumber, k: int) -> AqTemplate:
    """Template for the branching family, read off the first
    k + AQ_GAP_MARGIN expansion digits of 1; needs the base large enough
    that the family avoids both forbidden runs of length 9."""
    if compare_reals(q, bonacci_root(9)) != Ordering.Greater:
        raise BaseTooSmall("base must exceed the 9-bonacci root")
    c = fixed_expansion_of_one(q, k + AQ_GAP_MARGIN)
    bits: list[Optional[int]] = []
    free: list[int] = []
    zeros = 0
    for pos, d in enumerate(c.symbols):
        if d == 1:
            bits.append(1)
        elif d == -1:
            bits.append(0)
        else:
            zeros += 1
            if zeros % 2 == 0:
                bits.append(None)
                free.append(pos)
            elif zeros % 4 == 1:
                bits.append(1)
            else:
                bits.append(0)
    return AqTemplate(q, tuple(bits), tuple(free))


# ---------------------------------------------------------------------------
# follower-state analysis of the run-limited shift
# ---------------------------------------------------------------------------

_START = ("start",)


class ShiftSetAnalysis:
    """Exact interval and gap data for the projection of the run-limited
    shift (no 01^k, no 10^k) at a fixed base.

    The shift has finitely many follower states, so every geometric
    question reduces to finitely many exact computations: min/max tails
    are eventually periodic, and every gap of the projection is a scaled
    copy of one of the per-state gaps.

    One-gap lemma: every state with two successors splits its child copies
    by the same gap, or none has one. Its digit-1 child is ("init", 1) or
    ("run", 1, r), whose least tail starts with 0 into ("run", 0, 1); its
    digit-0 child is ("init", 0) or ("run", 0, r), whose greatest tail
    starts with 1 into ("run", 1, 1). So vmin of the 1-child and vmax of the
    0-child, and with them the split, do not depend on the state, for every
    base and run bound: `gap` holds it once. A gap inside a child copy is
    that gap scaled by q^-1 or less, smaller than the state's own, so each
    bridge spans its adjacent child copy (`bridge`).
    """

    def __init__(self, q: AlgebraicNumber, k: int):
        self.q = q
        self.k = check_run_bound(k)
        self.g = q.gen()
        self.ginv = 1 / self.g
        self._vmin: dict = {}
        self._vmax: dict = {}

    # -- automaton ----------------------------------------------------------

    def successors(self, state) -> tuple[tuple[int, tuple], ...]:
        k = self.k
        if state == _START:
            return ((0, ("init", 0)), (1, ("init", 1)))
        if state[0] == "init":
            d = state[1]
            moves = [(d, state), (1 - d, ("run", 1 - d, 1))]
            return tuple(sorted(moves))
        _, d, r = state
        moves = [(1 - d, ("run", 1 - d, 1))]
        if r + 1 <= k - 1:
            moves.append((d, ("run", d, r + 1)))
        return tuple(sorted(moves))

    # -- extremal tails -----------------------------------------------------

    def _extremal_tail(self, state, prefer: int) -> Tail:
        path = []
        digits = []
        s = state
        while s not in path:
            path.append(s)
            moves = self.successors(s)
            move = moves[0] if prefer == 0 else moves[-1]
            digits.append(move[0])
            s = move[1]
        start = path.index(s)
        return tail(digits[:start], digits[start:], Alphabet.BINARY)

    def vmin(self, state) -> FieldElement:
        if state not in self._vmin:
            self._vmin[state] = project_q(self.q, self._extremal_tail(state, 0))
        return self._vmin[state]

    def vmax(self, state) -> FieldElement:
        if state not in self._vmax:
            self._vmax[state] = project_q(self.q, self._extremal_tail(state, 1))
        return self._vmax[state]

    def diam(self, state) -> FieldElement:
        return self.vmax(state) - self.vmin(state)

    @cached_property
    def gap(self) -> Optional[tuple[FieldElement, FieldElement, FieldElement]]:
        """The unit gap (left end, right end, size) that splits the start
        state's digit-0 and digit-1 child copies, and by the one-gap lemma
        those of every state with two successors; None when the copies
        overlap. The copy of a state's set at offset off and scale sc has
        this gap mapped by x -> off + sc * x, so every gap of the
        projection is such a copy."""
        (_, s0), (_, s1) = self.successors(_START)
        left, right = self.vmax(s0) * self.ginv, (1 + self.vmin(s1)) * self.ginv
        return (left, right, right - left) if right > left else None

    def bridge(self, state) -> FieldElement:
        """Lower bound on both bridges of a branching state's gap at unit
        scale: the shorter of its two child copies' extents."""
        (_, s0), (_, s1) = self.successors(state)
        return min(self.diam(s0), self.diam(s1)) * self.ginv


# ---------------------------------------------------------------------------
# gap laws of the three set families
# ---------------------------------------------------------------------------


class GapFamily(Enum):
    AqSet = "aq"
    SkSet = "sk"
    ScaledShiftedSk = "scaled-shifted-sk"


@dataclass(frozen=True)
class GapLaw:
    """The gaps of one free position (aq) or follower state (sk): count
    of them, the largest first met at level. Left, right, size and
    bridge_lb describe the leftmost largest gap; every gap of the law is a
    translate (aq) or a scaled copy (sk) of it, with the same ratio of
    bridge to size."""

    meta: dict  # {"free_position": p} or {"state": str(state)}
    level: int
    count: int
    left: tuple[FieldElement, FieldElement]
    right: tuple[FieldElement, FieldElement]
    size: tuple[FieldElement, FieldElement]
    bridge_lb: FieldElement


@dataclass(frozen=True)
class GapStructure:
    family: GapFamily
    k: int
    level: int
    hull: tuple[tuple[FieldElement, FieldElement], tuple[FieldElement, FieldElement]]
    gaps: tuple[GapLaw, ...]

    @property
    def gap_count(self) -> int:
        return sum(law.count for law in self.gaps)


def _family_map(g: FieldElement, family: GapFamily) -> tuple[FieldElement, FieldElement]:
    """Shift and scale of x -> shift + scale * x, the map that carries the
    projection of the run-limited shift onto a shift-set family."""
    if family == GapFamily.SkSet:
        return g.base.zero(), g.base.one()
    return g.base.one(), 2 - g


def _shift_set_laws(ana: ShiftSetAnalysis, family: GapFamily, level: int) -> list[GapLaw]:
    """One law per state with two successors that the automaton first
    reaches below the level; the analysis must have a unit gap. The node
    reached by digits x_1 ... x_d is the copy of its state's set under
    x -> off + q^-d x, off = sum x_i q^-i, then the family map; so is its
    gap. A law's gaps are its state's nodes below the level, the largest
    at the state's first depth. A state has one node there, the one
    breadth-first search meets first: its digits are b for an initial run,
    or 1 - b then b^r for a run of r digits b."""
    shift, scale = _family_map(ana.g, family)
    first = {_START: (0, ana.g.base.zero())}  # state -> depth and offset of its first node
    queue = [_START]
    for s in queue:
        d, off = first[s]
        for dig, t in ana.successors(s):
            if t not in first:
                first[t] = (d + 1, off + ana.ginv ** (d + 1) if dig else off)
                queue.append(t)
    # nodes per state, depth by depth: integers, so no level is too deep
    nodes, counts = {_START: 1}, dict.fromkeys(first, 0)
    for _ in range(level):
        below = dict.fromkeys(first, 0)
        for s, n in nodes.items():
            counts[s] += n
            for _, t in ana.successors(s):
                below[t] += n
        nodes = below

    left, right, gap = ana.gap
    laws = []
    for s, (d, off) in first.items():
        if d < level and len(ana.successors(s)) == 2:
            sc, off = scale * ana.ginv**d, shift + scale * off
            lo, hi, size = off + sc * left, off + sc * right, sc * gap
            laws.append(GapLaw({"state": str(s)}, d, counts[s], (lo, lo), (hi, hi),
                               (size, size), sc * ana.bridge(s)))
    return sorted(laws, key=lambda law: (-law.size[0], law.left[0]))


def enumerate_gaps(q: AlgebraicNumber, family: GapFamily, level: int, k: int = 9) -> GapStructure:
    """Gap laws of one of the three projected digit families to the given
    level, largest first: one per free position of the branching family
    (AqTemplate.gap_laws), one per follower state of a shift-set family.
    Each law's gap count is exact. A shift-set family without a unit gap
    (ShiftSetAnalysis.gap) has no gap at all, so it returns its hull with
    no laws at once.
    """
    if family == GapFamily.AqSet:
        template = build_aq_prefixes(q, level)
        return GapStructure(family, 9, level, template.hull, tuple(template.gap_laws(level)))
    ana = ShiftSetAnalysis(q, k)
    shift, scale = _family_map(ana.g, family)
    lo, hi = shift + scale * ana.vmin(_START), shift + scale * ana.vmax(_START)
    laws = _shift_set_laws(ana, family, level) if ana.gap is not None else ()
    return GapStructure(family, k, level, ((lo, lo), (hi, hi)), tuple(laws))


def thickness_lower_bound(gs: GapStructure) -> FieldElement:
    """Least bridge-to-gap ratio of the laws; every gap of a law shares it."""
    if not gs.gaps:
        raise ThicknessError("no gaps enumerated")
    return min(law.bridge_lb / law.size[1] for law in gs.gaps)


# ---------------------------------------------------------------------------
# interleaving and the thickness certificate
# ---------------------------------------------------------------------------


def interleaving_check(
    hull: tuple[tuple[FieldElement, FieldElement], tuple[FieldElement, FieldElement]],
    scaled_hull: tuple[FieldElement, FieldElement],
    scaled_gap: FieldElement,
) -> list[IntervalCheck]:
    """Neither set can hide in a gap of the other.

    The scaled shift set attains both of its hull endpoints, which bracket
    the branching family's hull (AqTemplate.hull); and that hull is wider
    than the scaled set's largest gap, so it cannot sink into one. A
    largest gap of 0 means the scaled set has no gap to check against.
    """
    checks = [
        exact_check("hull-left-contained", "le", scaled_hull[0], hull[0][0]),
        exact_check("hull-right-contained", "le", hull[1][1], scaled_hull[1]),
    ]
    if scaled_gap > 0:
        width = hull[1][0] - hull[0][1]
        checks.append(exact_check("hull-wider-than-gap", "lt", scaled_gap, width))
    return checks


def newhouse_certify(q: AlgebraicNumber, level: int = 40) -> Certificate:
    """Certificate that the branching family meets the scaled shift set.

    Verifies the gap law of each free position below the stated level
    (enumerate_gaps: the 2^n - 1 gaps of n free positions obey n laws), the
    thickness, largest gap and hull of the shift projection, read from its
    gap laws (one per follower state), interleaving, and the thickness
    product; the level-independent tail of the gap laws follows from the
    verified block structure and is recorded as a hypothesis. A check that
    fails raises CertificateError.
    """
    aq = enumerate_gaps(q, GapFamily.AqSet, level)
    g = q.gen()
    checks = w2_cover_check(q)

    tau_aq = thickness_lower_bound(aq)
    for law in aq.gaps:
        pos, k, size = law.meta["free_position"], law.level, law.size
        for side, lhs, rhs in (
            ("below", size[1], g ** (1 - k)),
            ("above", g ** (-k), size[0]),
            ("bridge", g ** (-k - 4), law.bridge_lb),
        ):
            checks.append(exact_check(f"aq-position-{pos}-{side}", "lt", lhs, rhs))

    # a state with a gap has two successors, and at run bound 9 each such
    # state is first reached by depth 8: the laws to level 10 are all of
    # them, whatever the stated level
    sk = enumerate_gaps(q, GapFamily.SkSet, 10)
    if not sk.gaps:
        raise ThicknessError("shift has no gaps; thickness undefined")
    ratios = {law.meta["state"]: law.bridge_lb / law.size[1] for law in sk.gaps}
    tau_s, largest = min(ratios.values()), sk.gaps[0].size[0]
    checks.append(exact_check("sk-largest-gap", "lt", largest, g**-8))
    checks.append(exact_check("sk-thickness", "lt", g**6, tau_s))
    # branching-family thickness: bridge > q^(-k-4), gap < q^(-k+1)
    checks.append(exact_check("product-exceeds-one", "lt", 1, g**-5 * tau_s))
    shift, scale = _family_map(g, GapFamily.ScaledShiftedSk)
    scaled_hull = (shift + scale * sk.hull[0][0], shift + scale * sk.hull[1][0])
    checks.extend(interleaving_check(aq.hull, scaled_hull, scale * largest))

    return Certificate(
        claim="thick-linked-intersection",
        hypotheses=(
            "gap laws verified exactly to the stated level",
            "the gaps at one free position are translates that share its level, size and bridge",
            "deeper levels obey the same laws by the double-digit block structure",
            "thickness of the branching family is at least q^-5 by the gap laws",
            "affine images preserve thickness",
        ),
        level=level,
        checks=tuple(checks),
        data={
            "base": bracket(g),
            "aq-gap-count": aq.gap_count,
            "shift-thickness": bracket(tau_s),
            "shift-thickness-per-state": {s: bracket(r) for s, r in ratios.items()},
            "aq-thickness-enumerated": bracket(tau_aq),
        },
    )


# ---------------------------------------------------------------------------
# locating a three-orbit height
# ---------------------------------------------------------------------------


def find_slice3_witness(
    q: AlgebraicNumber, depth: int = 48
) -> tuple[FieldElement, SliceResult]:
    """Locate a height near one with exactly three expansion orbits.

    Refines a pair of enclosures, one inside the branching family and one
    inside the scaled shift set, keeping their overlap nonempty; the
    midpoint of the first overlap narrower than q^-(depth+12), pulled back
    to a height, is decided once by the slice engine. Returns that exact
    height and its slice decision, whatever it reads: the midpoint is not a
    point of the intersection, so its orbits follow the three designed
    cylinders for only about depth + 12 steps. Raises
    RefinementBudgetExceeded when no overlap narrows that far within
    WITNESS_BUDGET steps.
    """
    g = q.gen()
    template = build_aq_prefixes(q, depth + 42)
    ana = ShiftSetAnalysis(q, 9)
    shift, scale = _family_map(g, GapFamily.ScaledShiftedSk)

    def b_bracket(state, off, sc):
        lo = shift + scale * (off + sc * ana.vmin(state))
        hi = shift + scale * (off + sc * ana.vmax(state))
        return lo, hi

    fixed, weights, free_suffix, tail_bound = template.value_terms
    free_all = template.free_positions
    target_width = g ** (-(depth + 12))

    # depth-first over pairs (free-bit assignment, shift-set node),
    # keeping only pairs with overlapping value enclosures; alo is the
    # fixed part plus the weight of the free bits set to 1 so far, and
    # the free positions not yet set can add at most their total weight
    # plus the tail bound
    stack = [(fixed, 0, _START, g.base.zero(), g.base.one(), 0)]
    for _ in range(WITNESS_BUDGET):
        if not stack:
            break
        alo, na, state, off, sc, nb = stack.pop()
        ahi = alo + free_suffix[na] + tail_bound
        blo, bhi = b_bracket(state, off, sc)
        if max(alo, blo) > min(ahi, bhi):
            continue
        if ahi - alo < target_width and bhi - blo < target_width:
            height = (max(alo, blo) + min(ahi, bhi)) / 2 * (g - 1) / g
            return height, compute_slice(q, height, depth)
        if (na <= nb or nb >= 200) and na < len(free_all):
            w = weights[free_all[na]]
            stack.append((alo + w, na + 1, state, off, sc, nb))
            stack.append((alo, na + 1, state, off, sc, nb))
        else:
            child_sc = sc * ana.ginv
            for dig, child in reversed(ana.successors(state)):
                stack.append(
                    (alo, na, child, off + child_sc if dig else off, child_sc, nb + 1)
                )
    raise RefinementBudgetExceeded("no overlap narrowed to a witness height")
