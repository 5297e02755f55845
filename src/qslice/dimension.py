"""Lower bounds for the dimension of slice sets.

The mechanism: every trajectory falls into the overlap region within a
bounded number of steps, each visit forks the orbit tree, and the forks
project to disjoint ternary cylinders. A uniform bound M on the time to
fork gives at least 2^(d/M) cylinders of depth d, hence box dimension at
least log 2 / (M log 3) for every slice at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebraic import AlgebraicNumber, FieldElement, enclose
from .dynamics import (
    PointLike,
    apply_word,
    ternary_branch_system,
    word_is_applicable,
)
from .words import Alphabet, Word, project_ternary


class DimensionError(ValueError):
    pass


class BranchingNotFound(DimensionError):
    pass


class ConstructionStalled(DimensionError):
    def __init__(self, level: int, message: str):
        super().__init__(f"level {level}: {message}")
        self.level = level


class TooFewDepths(DimensionError):
    pass


@dataclass(frozen=True)
class BranchingPair:
    """Two one-digit extensions of a forced word, witnessing a fork."""

    words: tuple[Word, Word]
    branch_point: FieldElement
    length: int  # number of maps applied, fork included


def branching_pair_search(
    q: AlgebraicNumber, x: PointLike, max_len: int = 48
) -> BranchingPair:
    """Follow the forced branch from x until at least two maps apply,
    then return the two extremal continuations."""
    sys = ternary_branch_system(q)
    z = sys.lift(x)
    forced: list[int] = []
    for _ in range(max_len):
        labels = sys.applicable(z)
        if not labels:
            raise BranchingNotFound("point left the domain of every branch")
        # a child sitting exactly on a fixed endpoint would never fork
        # again, so such forks are walked through instead of used
        usable = [
            l
            for l in labels
            if sys.branch(l)(z) != sys.hull_lo and sys.branch(l)(z) != sys.hull_hi
        ]
        if len(usable) >= 2:
            wa = Word(Alphabet.TERNARY, tuple(forced) + (usable[0],))
            wb = Word(Alphabet.TERNARY, tuple(forced) + (usable[-1],))
            return BranchingPair((wa, wb), z, len(forced) + 1)
        step = usable[0] if usable else labels[0]
        z = sys.branch(step)(z)
        forced.append(step)
    raise BranchingNotFound(f"no fork within {max_len} steps")


def estimate_M(
    q: AlgebraicNumber, grid_resolution: int = 256, max_len: int = 24
) -> int:
    """Uniform bound on the fork time, valid for every point at once.

    Closed subintervals of the state interval are pushed forward exactly;
    a piece inside the overlap region forks wholesale, a piece straddling
    a domain boundary is split there. The returned M counts maps applied
    up to and including the fork, maximized over all pieces.

    The two fixed endpoints of the interval never fork, so one grid cell
    is excluded at each end; points inside the excluded cells fork after
    an extra delay of about log_q of their distance from the endpoint.
    """
    if grid_resolution < 3:
        raise DimensionError("grid must have at least three cells")
    sys = ternary_branch_system(q)
    g = sys.q()
    jlo, jhi = sys.switch_lo, sys.switch_hi
    top = sys.hull_hi
    queue: list[tuple[FieldElement, FieldElement, int]] = []
    cuts = [top * Fraction(i, grid_resolution) for i in range(grid_resolution + 1)]
    for a, b in list(zip(cuts, cuts[1:]))[1:-1]:
        queue.append((a, b, 0))
    worst = 0
    while queue:
        lo, hi, t = queue.pop()
        if t >= max_len:
            raise BranchingNotFound(f"some piece has no fork within {max_len} steps")
        if jlo <= lo and hi <= jhi:
            worst = max(worst, t + 1)
        elif hi <= jlo:
            queue.append((g * lo, g * hi, t + 1))
        elif lo >= jhi:
            queue.append((g * lo - 1, g * hi - 1, t + 1))
        else:
            if lo < jlo < hi:
                queue.append((lo, jlo, t))
                queue.append((jlo, hi, t))
            else:  # straddles only the upper boundary
                queue.append((lo, jhi, t))
                queue.append((jhi, hi, t))
    return worst


def dimension_lower_bound(M: int) -> float:
    """Box dimension bound from a uniform fork time."""
    if M < 1:
        raise DimensionError("fork time must be at least 1")
    return math.log(2) / (M * math.log(3))


@dataclass(frozen=True)
class RNode:
    eps: tuple[int, ...]  # binary address in the refinement tree
    word: Word
    value: FieldElement


@dataclass(frozen=True)
class RTree:
    """Binary refinement tree: each node's word forces the orbit until a
    fork, and the two children extend it by the extremal fork digits."""

    base: AlgebraicNumber
    levels: tuple[tuple[RNode, ...], ...]
    m_bound: Optional[int]
    max_branch_length: int

    def leaves(self) -> tuple[RNode, ...]:
        return self.levels[-1]

    def validate(self) -> list[str]:
        problems = []
        sys = ternary_branch_system(self.base)
        root = self.levels[0][0]
        nodes = [n for lvl in self.levels for n in lvl]
        for n in nodes:
            if not word_is_applicable(sys, n.word, root.value):
                problems.append(f"{n.eps}: word not applicable from the root")
            elif apply_word(sys, n.word, root.value) != n.value:
                problems.append(f"{n.eps}: stored value does not match its word")
        for a in nodes:
            for b in nodes:
                addr = a.eps == b.eps[: len(a.eps)]
                wrd = a.word.symbols == b.word.symbols[: len(a.word)]
                if addr != wrd:
                    problems.append(f"{a.eps} vs {b.eps}: prefix order disagrees")
        for lvl in self.levels:
            spans = []  # each node's ternary cylinder [lo, lo + 3^-len)
            for n in lvl:
                lo = project_ternary(n.word)
                spans.append((lo, lo + Fraction(1, 3 ** len(n.word))))
            for i, (a, (alo, ahi)) in enumerate(zip(lvl, spans)):
                for b, (blo, bhi) in zip(lvl[i + 1 :], spans[i + 1 :]):
                    if min(ahi, bhi) > max(alo, blo):
                        problems.append(
                            f"{a.eps} vs {b.eps}: ternary cylinders overlap"
                        )
        if self.m_bound is not None:
            for i, lvl in enumerate(self.levels):
                for n in lvl:
                    if len(n.word) > i * self.m_bound:
                        problems.append(f"{n.eps}: word longer than level allows")
        if len(self.leaves()) != 2 ** (len(self.levels) - 1):
            problems.append("leaf masses do not sum to 1")
        return problems


def build_r_tree(
    q: AlgebraicNumber,
    x: PointLike,
    k_levels: int,
    m_bound: Optional[int] = None,
    max_len: int = 48,
) -> RTree:
    if k_levels < 1:
        raise DimensionError("need at least one level")
    sys = ternary_branch_system(q)
    root = RNode((), Word(Alphabet.TERNARY, ()), sys.lift(x))
    levels = [(root,)]
    longest = 0
    for level in range(1, k_levels + 1):
        nxt = []
        for node in levels[-1]:
            try:
                # individual forks may run past m_bound; only the
                # cumulative word length per level is constrained
                pair = branching_pair_search(q, node.value, max_len)
            except BranchingNotFound as e:
                raise ConstructionStalled(level, str(e))
            longest = max(longest, pair.length)
            for bit, cont in enumerate(pair.words):
                w = Word(Alphabet.TERNARY, node.word.symbols + cont.symbols)
                v = apply_word(sys, cont, node.value)
                nxt.append(RNode(node.eps + (bit,), w, v))
        levels.append(tuple(nxt))
    return RTree(q, tuple(levels), m_bound, longest)


def affinity_dimension(q) -> float:
    """Dimension of the self-affine carrier, from the singular values of
    the three generating maps: 1 + log_3(4/q - 1)."""
    if isinstance(q, AlgebraicNumber):
        lo, hi = enclose(q, 10**24)
        val = (lo + hi) / 2
    else:
        val = Fraction(q)
    if not 1 < val < 2:
        raise DimensionError("base must lie strictly between 1 and 2")
    return 1.0 + math.log(float(4 / val - 1)) / math.log(3.0)


def box_dimension_estimate(
    counts: Sequence[int], depths: Sequence[int]
) -> tuple[float, float]:
    """Least-squares slope of log-counts against depth, in base-3 units,
    and the rms residual of the fit."""
    if len(counts) != len(depths):
        raise DimensionError("counts and depths must align")
    if len(set(depths)) < 2:
        raise TooFewDepths("need at least two distinct depths to fit a slope")
    n = len(depths)
    mean_depth = Fraction(sum(depths), n)
    c = [d - mean_depth for d in depths]  # exact, so sum(c) == 0: no intercept
    y = [math.log(k) for k in counts]
    b = math.fsum(ci * yi for ci, yi in zip(c, y)) / float(sum(ci * ci for ci in c))
    slope = b / math.log(3.0)
    y_mean = math.fsum(y) / n
    rms = math.sqrt(math.fsum((yi - y_mean - b * ci) ** 2 for ci, yi in zip(c, y)) / n)
    return slope, rms
