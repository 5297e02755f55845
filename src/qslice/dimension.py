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
from .dynamics import OutOfDomain, PointLike, apply_word, ternary_branch_system
from .words import Alphabet, Word

END_MARGIN = Fraction(1, 256)  # share of the state interval estimate_M leaves out at each end
MAX_FORK_WALK = 48  # most maps a fork search walks, for M and the refinement tree alike


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
    q: AlgebraicNumber, x: PointLike, max_len: int = MAX_FORK_WALK
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
        images = [(l, sys.branch(l)(z)) for l in labels]
        # a child sitting exactly on a fixed endpoint would never fork
        # again, so such forks are walked through instead of used
        usable = [(l, w) for l, w in images if w != sys.hull_lo and w != sys.hull_hi]
        if len(usable) >= 2:
            wa = Word(Alphabet.TERNARY, tuple(forced) + (usable[0][0],))
            wb = Word(Alphabet.TERNARY, tuple(forced) + (usable[-1][0],))
            return BranchingPair((wa, wb), z, len(forced) + 1)
        step, z = usable[0] if usable else images[0]
        forced.append(step)
    raise BranchingNotFound(f"no fork within {max_len} steps")


def estimate_M(q: AlgebraicNumber, max_len: int = MAX_FORK_WALK) -> int:
    """Uniform bound on the fork time, valid for every point at once.

    One closed piece, the state interval less an END_MARGIN share at each
    end, is pushed forward exactly: a piece inside the switch region forks
    wholesale, a piece on one side of it goes through branch 0 or 2, and a
    piece straddling a region end is split there. The returned M counts
    maps applied up to and including the fork, maximized over all pieces.

    The branches are increasing affine maps, so a cut anywhere else would
    leave every point's fate, and M, as they are: only the end margins set
    M. The two fixed endpoints never fork, so they must be left out;
    points inside the margins fork after an extra delay of about log_q of
    their distance from the endpoint, and a narrower margin gives a
    larger M.
    """
    sys = ternary_branch_system(q)
    jlo, jhi = sys.switch_lo, sys.switch_hi
    left, right = sys.branch(0), sys.branch(2)
    margin = sys.hull_hi * END_MARGIN
    queue = [(margin, sys.hull_hi - margin, 0)]
    worst = 0
    while queue:
        lo, hi, t = queue.pop()
        if t >= max_len:
            raise BranchingNotFound(f"some piece has no fork within {max_len} steps")
        if jlo <= lo and hi <= jhi:
            worst = max(worst, t + 1)
        elif hi <= jlo:
            queue.append((left(lo), left(hi), t + 1))
        elif lo >= jhi:
            queue.append((right(lo), right(hi), t + 1))
        else:
            cut = jlo if lo < jlo else jhi
            queue += [(lo, cut, t), (cut, hi, t)]
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
        """Problems with the tree, as messages naming nodes; [] if none.

        Each node is checked once, against its parent as stored: level 0
        is one root with the empty address and word; level i has twice as
        many nodes as level i - 1, and its node j has the address of its
        parent, node j // 2 of level i - 1, plus the bit j % 2; its word,
        within the length bound of level i, is the parent's plus an
        extension, which one apply_word, with domain checks, takes from the
        parent's value to its own; and the words of two siblings are
        prefix-incomparable, so no extension is empty. By induction on the
        level, these edge checks give what the leaves' equal masses rest on:

        1. Every word applies from the root and lands on its node's value.
        2. One address is a prefix of another exactly when its word is.
           The addresses of level i are the 2^i binary strings, so a prefix
           of b's address is an ancestor's, and words extend along edges.
           Conversely, let a's word be a prefix of b's. A proper ancestor
           of a has a shorter word, so b is not one; and if a were not an
           ancestor of b, the two would descend from two siblings, whose
           words, both prefixes of b's, would be comparable.
        3. The ternary cylinders [0.w, 0.w + 3^-|w|) of a level are
           disjoint: two meet only when one word is a prefix of the other,
           and by 2 the words of two distinct nodes of a level are not."""
        problems = []
        sys = ternary_branch_system(self.base)
        root = self.levels[0]
        if len(root) != 1 or root[0].eps or root[0].word.symbols:
            problems.append("level 0 is not one root with the empty address and word")
        for i, (parents, lvl) in enumerate(zip(self.levels, self.levels[1:]), 1):
            if len(lvl) != 2 * len(parents):
                problems.append(f"level {i}: {len(lvl)} nodes for {len(parents)} parents")
            for j, n in enumerate(lvl[: 2 * len(parents)]):
                p = parents[j // 2]
                if self.m_bound is not None and len(n.word) > i * self.m_bound:
                    problems.append(f"{n.eps}: word longer than level allows")
                if n.eps != p.eps + (j % 2,):
                    problems.append(f"{n.eps}: address is not its parent's plus one bit")
                if j % 2:
                    a, b = lvl[j - 1].word.symbols, n.word.symbols
                    if a[: len(b)] == b[: len(a)]:
                        problems.append(f"{lvl[j - 1].eps} vs {n.eps}: ternary cylinders overlap")
                cut = len(p.word)
                if n.word.symbols[:cut] != p.word.symbols:
                    problems.append(f"{p.eps} vs {n.eps}: prefix order disagrees")
                    continue
                try:
                    if apply_word(sys, n.word[cut:], p.value) != n.value:
                        problems.append(f"{n.eps}: stored value does not match its word")
                except OutOfDomain:
                    problems.append(f"{n.eps}: word not applicable from the root")
        if len(self.leaves()) != 2 ** (len(self.levels) - 1):
            problems.append("leaf masses do not sum to 1")
        return problems


def build_r_tree(
    q: AlgebraicNumber,
    x: PointLike,
    k_levels: int,
    m_bound: Optional[int] = None,
    max_len: int = MAX_FORK_WALK,
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
                v = sys.branch(cont[-1])(pair.branch_point)
                nxt.append(RNode(node.eps + (bit,), node.word + cont, v))
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
