import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslice.algebraic import AlgebraicNumber, bonacci_root
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
from qslice.dynamics import enumerate_orbits, ternary_branch_system

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
    assert estimate_M(Q32, grid_resolution=256, max_len=40) == 12
    assert estimate_M(Q32, grid_resolution=64, max_len=40) == 9
    assert estimate_M(AlgebraicNumber.from_rational(Fraction(7, 5)), 256, 40) == 14


def test_estimate_m_input_errors():
    with pytest.raises(DimensionError):
        estimate_M(Q32, grid_resolution=2)
    with pytest.raises(BranchingNotFound):
        estimate_M(Q32, grid_resolution=256, max_len=5)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=Fraction(1, 64), max_value=Fraction(127, 64)))
def test_estimate_m_bounds_every_interior_fork(x):
    # any point inside the non-excluded cells forks at least as fast as
    # the piece containing it
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
    M = estimate_M(Q32, grid_resolution=64, max_len=40)
    sys = ternary_branch_system(Q32)
    x0 = sys.lift(Fraction(1, 3))
    depths = list(range(8, 15))
    counts = enumerate_orbits(sys, x0, depths[-1]).sizes[depths[0]:]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    est, _ = box_dimension_estimate(counts, depths)
    assert dimension_lower_bound(M) <= est + 0.05
