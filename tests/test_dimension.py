import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qslice import dynamics
from qslice.algebraic import AlgebraicNumber, bonacci_root
from qslice.bonacci import two_orbit_base
from qslice.dimension import (
    BranchingNotFound,
    ConstructionStalled,
    DimensionError,
    TooFewDepths,
    affinity_dimension,
    box_dimension_estimate,
    branching_pair_search,
    build_r_tree,
    dimension_lower_bound,
    estimate_M,
)
from qslice.dynamics import (
    apply_word,
    enumerate_orbits,
    ternary_branch_system,
    word_is_applicable,
)
from qslice.words import Alphabet, Word, project_ternary

Q32 = AlgebraicNumber.from_rational(Fraction(3, 2))


def test_branching_pair_from_a_third():
    bp = branching_pair_search(Q32, Fraction(1, 3))
    assert bp.words[0].symbols == (0, 0, 0)
    assert bp.words[1].symbols == (0, 0, 2)
    assert bp.length == 3
    assert bp.branch_point.as_fraction() == Fraction(3, 4)


def test_branching_pair_walks_past_dead_fork():
    # at 2/3 one fork child is the fixed point at zero, so the search
    # continues along the surviving branch and forks one step later
    bp = branching_pair_search(Q32, Fraction(2, 3))
    assert bp.length == 2
    assert bp.branch_point.as_fraction() == 1


def test_branching_not_found_above_golden():
    with pytest.raises(BranchingNotFound):
        branching_pair_search(bonacci_root(3), Fraction(1, 2), max_len=48)


def test_estimate_m_frozen_values():
    assert estimate_M(Q32, max_len=40) == 12
    assert estimate_M(AlgebraicNumber.from_rational(Fraction(7, 5)), max_len=40) == 14


def test_estimate_m_input_errors():
    with pytest.raises(BranchingNotFound):
        estimate_M(Q32, max_len=5)


def _grid_M(q, max_len):
    """The fork-time bound as a push of 256 equal cells, less one at each
    end, with the two branches written out: the reference for estimate_M."""
    sys = ternary_branch_system(q)
    g = sys.q()
    jlo, jhi = sys.switch_lo, sys.switch_hi
    cuts = [sys.hull_hi * Fraction(i, 256) for i in range(257)]
    queue = [(a, b, 0) for a, b in list(zip(cuts, cuts[1:]))[1:-1]]
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
        elif lo < jlo < hi:
            queue += [(lo, jlo, t), (jlo, hi, t)]
        else:  # straddles only the upper end
            queue += [(lo, jhi, t), (jhi, hi, t)]
    return worst


def _M_or_raise(estimate, q, max_len):
    try:
        return estimate(q, max_len)
    except BranchingNotFound as e:
        return str(e)


_M_BASES = st.one_of(
    st.integers(2, 40).flatmap(
        lambda b: st.integers(b + 1, 2 * b - 1).map(lambda a: ("rational", Fraction(a, b)))
    ),
    st.integers(2, 10).map(lambda k: ("bonacci", k)),
    st.just(("two-orbit", None)),
)


@settings(max_examples=150, deadline=None)
@given(_M_BASES, st.sampled_from([24, 48]))
def test_estimate_m_matches_the_grid_push(base, max_len):
    # interior cuts change no point's fate: one piece gives the grid's M,
    # or the same raise
    kind, v = base
    make = {
        "rational": lambda: AlgebraicNumber.from_rational(v),
        "bonacci": lambda: bonacci_root(v),
        "two-orbit": two_orbit_base,
    }[kind]
    assert _M_or_raise(estimate_M, make(), max_len) == _M_or_raise(_grid_M, make(), max_len)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=Fraction(1, 64), max_value=Fraction(127, 64)))
def test_estimate_m_bounds_every_interior_fork(x):
    # any point between the end margins forks at least as fast as the
    # piece containing it
    bp = branching_pair_search(Q32, x)
    assert bp.length <= 12


def test_dimension_lower_bound_formula():
    assert dimension_lower_bound(1) == pytest.approx(math.log(2) / math.log(3))
    assert dimension_lower_bound(12) == pytest.approx(0.0525774794, abs=1e-9)
    with pytest.raises(DimensionError):
        dimension_lower_bound(0)


def test_r_tree_structure():
    tree = build_r_tree(Q32, Fraction(1, 3), 5, m_bound=12)
    assert [len(l) for l in tree.levels] == [1, 2, 4, 8, 16, 32]
    assert tree.validate() == []
    assert len({n.eps for n in tree.leaves()}) == 32
    first = tree.levels[1]
    assert first[0].word.symbols == (0, 0, 0)
    assert first[1].word.symbols == (0, 0, 2)


def test_r_tree_other_base():
    q = AlgebraicNumber.from_rational(Fraction(7, 5))
    tree = build_r_tree(q, Fraction(1, 2), 4, m_bound=14)
    assert [len(l) for l in tree.levels] == [1, 2, 4, 8, 16]
    assert tree.validate() == []


def test_r_tree_validate_reports_a_copied_word():
    # a leaf that carries its sibling's word keeps its own value, so its
    # ternary cylinder overlaps the sibling's and its value no longer matches
    tree = build_r_tree(Q32, Fraction(1, 3), 3, m_bound=12)
    leaves = list(tree.leaves())
    leaves[0] = replace(leaves[0], word=leaves[1].word)
    problems = replace(tree, levels=tree.levels[:-1] + (tuple(leaves),)).validate()
    a, b = leaves[0].eps, leaves[1].eps
    assert f"{a}: stored value does not match its word" in problems
    assert f"{a} vs {b}: ternary cylinders overlap" in problems


# -- the all-pairs validation the edge checks replaced, kept as reference ----


def _ref_validate(tree):
    """RTree.validate as it checked a tree before the edge checks: every
    word walked from the root, every pair of nodes compared for prefix
    order, and every pair of ternary cylinders in a level compared."""
    problems = []
    sys = ternary_branch_system(tree.base)
    root = tree.levels[0][0]
    nodes = [n for lvl in tree.levels for n in lvl]
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
    for lvl in tree.levels:
        spans = []  # each node's ternary cylinder [lo, lo + 3^-len)
        for n in lvl:
            lo = project_ternary(n.word)
            spans.append((lo, lo + Fraction(1, 3 ** len(n.word))))
        for i, (a, (alo, ahi)) in enumerate(zip(lvl, spans)):
            for b, (blo, bhi) in zip(lvl[i + 1 :], spans[i + 1 :]):
                if min(ahi, bhi) > max(alo, blo):
                    problems.append(f"{a.eps} vs {b.eps}: ternary cylinders overlap")
    if tree.m_bound is not None:
        for i, lvl in enumerate(tree.levels):
            for n in lvl:
                if len(n.word) > i * tree.m_bound:
                    problems.append(f"{n.eps}: word longer than level allows")
    if len(tree.leaves()) != 2 ** (len(tree.levels) - 1):
        problems.append("leaf masses do not sum to 1")
    return problems


small_rational_bases = st.fractions(
    min_value=Fraction(13, 12), max_value=Fraction(23, 12), max_denominator=12
)
heights = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20)


def _built(q, y, levels):
    base = AlgebraicNumber.from_rational(q)
    x = ternary_branch_system(base).hull_hi * y
    try:
        return build_r_tree(base, x, levels)
    except ConstructionStalled:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(small_rational_bases, heights, st.integers(1, 5))
def test_edge_checks_pass_every_built_tree(q, y, levels):
    tree = _built(q, y, levels)
    assert tree.validate() == []
    assert _ref_validate(tree) == []


def _with_level(tree, i, lvl):
    return replace(tree, levels=tree.levels[:i] + (tuple(lvl),) + tree.levels[i + 1 :])


def _with_node(tree, i, j, node):
    lvl = tree.levels[i]
    return _with_level(tree, i, lvl[:j] + (node,) + lvl[j + 1 :])


def _mutant(tree, kind, i, j):
    """The tree with one fault of the given kind at node j (even) of level
    i >= 1, at its sibling, or at its level."""
    lvl, node, sib = tree.levels[i], tree.levels[i][j], tree.levels[i][j + 1]
    parent = tree.levels[i - 1][j // 2]
    if kind == "copied sibling word":
        return _with_node(tree, i, j, replace(node, word=sib.word))
    if kind == "duplicated sibling":
        return _with_node(tree, i, j, replace(sib, eps=node.eps))
    if kind == "swapped siblings":
        return _with_level(tree, i, lvl[:j] + (sib, node) + lvl[j + 2 :])
    if kind == "altered value":
        return _with_node(tree, i, j, replace(node, value=node.value + 1))
    if kind == "altered first digit":
        first = Word(Alphabet.TERNARY, ((node.word[0] + 1) % 3,))
        return _with_node(tree, i, j, replace(node, word=first + node.word[1:]))
    if kind == "empty extension":
        return _with_node(tree, i, j, replace(node, word=parent.word))
    if kind == "dropped node":
        return _with_level(tree, i, lvl[:-1])
    if kind == "permuted level":
        return _with_level(tree, i, lvl[j + 1 :] + lvl[: j + 1])
    if kind == "shifted words":
        # every word, the root's included, gains a leading 0
        zero = Word(Alphabet.TERNARY, (0,))
        return replace(tree, levels=tuple(
            tuple(replace(n, word=zero + n.word) for n in lvl) for lvl in tree.levels
        ))
    assert kind == "word over m_bound"
    return replace(tree, m_bound=len(node.word) // i - 1)


MUTANTS = (
    "copied sibling word", "duplicated sibling", "swapped siblings", "altered value",
    "altered first digit", "empty extension", "dropped node", "permuted level",
    "shifted words", "word over m_bound",
)


@pytest.mark.parametrize("kind", MUTANTS)
@settings(max_examples=20, deadline=None)
@given(q=small_rational_bases, y=heights, levels=st.integers(1, 4), data=st.data())
def test_edge_checks_are_at_least_as_strict_as_the_pairwise_checks(kind, q, y, levels, data):
    # every mutant is a fault the edge checks report; and wherever the
    # reference reports a problem, so do they
    tree = _built(q, y, levels)
    i = data.draw(st.integers(1, levels))
    j = 2 * data.draw(st.integers(0, 2 ** (i - 1) - 1))
    bad = _mutant(tree, kind, i, j)
    new, ref = bad.validate(), _ref_validate(bad)
    assert new
    # the reference sees no fault of node order alone, nor a missing node
    # above the leaves
    assert ref or kind in ("swapped siblings", "permuted level") or (
        kind == "dropped node" and i < levels
    )


def test_r_tree_validate_reports_an_inapplicable_word():
    # the middle branch does not apply at 1/3, below the switch region
    tree = build_r_tree(Q32, Fraction(1, 3), 2, m_bound=12)
    node = tree.levels[1][0]
    bad = _with_node(tree, 1, 0, replace(node, word=Word(Alphabet.TERNARY, (1, 0, 0))))
    assert "(0,): word not applicable from the root" in bad.validate()
    assert "(0,): word not applicable from the root" in _ref_validate(bad)


def test_validate_walks_each_edge_once(monkeypatch):
    # one apply_map per extension digit: no walks from the root and no
    # pairwise loops
    tree = build_r_tree(Q32, Fraction(1, 3), 6, m_bound=12)
    calls = []
    apply_map = dynamics.apply_map

    def counted(*args):
        calls.append(args)
        return apply_map(*args)

    monkeypatch.setattr(dynamics, "apply_map", counted)
    assert tree.validate() == []
    # each node below the root extends its parent's word, and each parent
    # has two children
    words = sum(len(n.word) for lvl in tree.levels for n in lvl)
    parents = sum(len(n.word) for lvl in tree.levels[:-1] for n in lvl)
    assert len(calls) == words - 2 * parents > 0


def test_r_tree_stalls_where_expansion_is_unique():
    with pytest.raises(ConstructionStalled) as e:
        build_r_tree(bonacci_root(3), Fraction(1, 2), 3)
    assert e.value.level == 1


def test_affinity_dimension_frozen():
    assert affinity_dimension(Fraction(5, 3)) == pytest.approx(
        1.3062702284, abs=1e-9
    )
    assert affinity_dimension(bonacci_root(3)) == pytest.approx(
        1.1466035938, abs=1e-9
    )


def test_affinity_dimension_monotone_and_bounded():
    vals = [affinity_dimension(Fraction(n, 100)) for n in (110, 130, 150, 170, 190)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(1 < v < 2 for v in vals)
    with pytest.raises(DimensionError):
        affinity_dimension(Fraction(5, 2))
    with pytest.raises(DimensionError):
        affinity_dimension(1)


def test_box_dimension_estimate_recovers_exact_slope():
    depths = list(range(4, 12))
    counts = [2**d for d in depths]
    assert box_dimension_estimate(counts, depths)[0] == pytest.approx(
        math.log(2) / math.log(3)
    )
    with pytest.raises(TooFewDepths):
        box_dimension_estimate([10], [5])
    with pytest.raises(TooFewDepths):
        box_dimension_estimate([10, 12], [5, 5])
    with pytest.raises(DimensionError):
        box_dimension_estimate([1, 2], [1, 2, 3])


def test_box_fit_bracket_encloses_the_true_slope():
    import mpmath

    from qslice.cli import _interval

    lo, hi = _interval(box_dimension_estimate([33, 55, 87], [8, 9, 10])[0])
    with mpmath.workdps(50):
        # three equally spaced depths: the fitted slope is (y3 - y1) / 2
        ref = (mpmath.log(87) - mpmath.log(33)) / (2 * mpmath.log(3))
        assert mpmath.mpf(lo) <= ref <= mpmath.mpf(hi)


def test_dimension_chain_is_consistent():
    M = estimate_M(Q32, max_len=40)
    sys = ternary_branch_system(Q32)
    x0 = sys.lift(Fraction(1, 3))
    depths = list(range(8, 15))
    counts = enumerate_orbits(sys, x0, depths[-1]).sizes[depths[0]:]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    est, _ = box_dimension_estimate(counts, depths)
    assert dimension_lower_bound(M) <= est + 0.05
