"""Branch systems: domains, the orbit walk, uniqueness certification."""

import inspect
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslice.algebraic import AlgebraicNumber, algebraic_from_poly, bonacci_root
from qslice import bonacci, dynamics
from qslice.bonacci import two_orbit_base
from qslice.dynamics import (
    InvalidBase,
    OutOfDomain,
    UniqueOrbitStatus,
    apply_map,
    apply_word,
    enumerate_orbits,
    tail_is_orbit,
    ternary_branch_system,
    unique_orbit_check,
)
from qslice.words import Alphabet, tail, word

Q53 = AlgebraicNumber.from_rational(Fraction(5, 3))


def F(a, b):
    return Fraction(a, b)


rational_bases = st.fractions(
    min_value=F(21, 20), max_value=F(39, 20), max_denominator=50
)


# -- construction -------------------------------------------------------------


def test_ternary_system_exact_domains():
    sys = ternary_branch_system(Q53)
    f0, f1, f2 = sys.maps
    assert (f0.lo.as_fraction(), f0.hi.as_fraction()) == (F(0, 1), F(9, 10))
    assert (f0.lo_closed, f0.hi_closed) == (True, False)
    assert (f1.lo.as_fraction(), f1.hi.as_fraction()) == (F(3, 5), F(9, 10))
    assert (f1.lo_closed, f1.hi_closed) == (False, True)
    assert (f2.lo.as_fraction(), f2.hi.as_fraction()) == (F(3, 5), F(3, 2))
    assert (f2.lo_closed, f2.hi_closed) == (True, True)
    assert sys.switch_lo.as_fraction() == F(3, 5)
    assert sys.switch_hi.as_fraction() == F(9, 10)


def test_invalid_bases_rejected():
    for bad in (Fraction(2), Fraction(1), Fraction(5, 2), Fraction(9, 10)):
        with pytest.raises(InvalidBase):
            ternary_branch_system(AlgebraicNumber.from_rational(bad))


def test_applicable_branches_at_key_points():
    sys = ternary_branch_system(Q53)
    assert sys.applicable(F(1, 2)) == [0]
    assert sys.applicable(F(3, 4)) == [0, 1, 2]
    assert sys.applicable(F(3, 5)) == [0, 2]
    assert sys.applicable(F(9, 10)) == [1, 2]
    assert sys.applicable(1) == [2]
    assert sys.applicable(F(3, 2)) == [2]
    assert sys.applicable(0) == [0]


def test_apply_map_values_and_domain_errors():
    sys = ternary_branch_system(Q53)
    assert apply_map(sys, 0, F(9, 16)).as_fraction() == F(15, 16)
    assert apply_map(sys, 2, F(15, 16)).as_fraction() == F(9, 16)
    # middle branch sweeps the switch region onto the full interval, reversed
    assert apply_map(sys, 1, F(9, 10)).as_fraction() == F(0, 1)
    with pytest.raises(OutOfDomain) as e:
        apply_map(sys, 2, 0)
    assert e.value.endpoint == "lo"
    with pytest.raises(OutOfDomain) as e:
        apply_map(sys, 0, F(9, 10))
    assert e.value.endpoint == "hi"
    with pytest.raises(OutOfDomain) as e:
        apply_map(sys, 1, F(1, 2))
    assert e.value.endpoint == "lo"


# -- single-orbit walks --------------------------------------------------------


def test_two_cycle_certifies_unique():
    res = unique_orbit_check(Q53, F(9, 16), 10)
    assert res.status == UniqueOrbitStatus.UniqueCertified
    assert res.route == "periodic-trajectory"
    assert (res.cycle_start, res.cycle_length) == (0, 2)
    assert res.digits.symbols == (0, 2)


def test_branch_found_immediately_and_later():
    res = unique_orbit_check(Q53, F(3, 4), 10)
    assert res.status == UniqueOrbitStatus.BranchFoundAt
    assert res.branch_step == 0
    res = unique_orbit_check(Q53, F(9, 20), 10)
    assert res.status == UniqueOrbitStatus.BranchFoundAt
    assert res.branch_step == 1
    assert res.digits == word([0], Alphabet.TERNARY)


def test_unknown_at_depth_for_wandering_point():
    q = AlgebraicNumber.from_rational(F(1999, 1000))
    res = unique_orbit_check(q, F(1, 2), 30)
    assert res.status == UniqueOrbitStatus.UnknownAtDepth
    assert len(res.digits) == 30


def test_shift_membership_route():
    # the run-limited-shift lemma lives with c2_probe, its one caller
    q = AlgebraicNumber.from_rational(F(1999, 1000))
    assert bonacci._shift_certificate_k(q, tail([], [0] * 8 + [1])) == 9


def test_walk_layer_keeps_no_bonacci_thresholds():
    for name in (
        "bonacci_root", "compare_reals", "member", "project_q", "run_limited",
        "run_limited_strict",
    ):
        assert not hasattr(dynamics, name), name
    assert list(inspect.signature(unique_orbit_check).parameters) == ["q", "x", "depth"]
    assert "shift_k" not in {f.name for f in fields(dynamics.UniqueOrbitResult)}


def test_golden_boundary_point_branches():
    # at the golden ratio, 1 sits on the switch boundary: two expansions
    phi = bonacci_root(2)
    res = unique_orbit_check(phi, 1, 10)
    assert res.status == UniqueOrbitStatus.BranchFoundAt
    assert res.branch_step == 0


# -- the orbit walk ----------------------------------------------------------------


def test_orbit_tree_structure():
    q = AlgebraicNumber.from_rational(F(3, 2))
    sys = ternary_branch_system(q)
    walk = enumerate_orbits(sys, 1, 4)
    assert {path[0] for path in walk.paths} == {0, 1, 2}
    assert len(walk.paths) >= 2
    assert walk.sizes[0] == 1 and walk.sizes[-1] == len(walk.paths)
    for path, p in zip(walk.paths, walk.points()):
        assert apply_word(sys, word(path, Alphabet.TERNARY), 1) == p


def test_orbit_tree_single_path():
    sys = ternary_branch_system(Q53)
    walk = enumerate_orbits(sys, F(9, 16), 12)
    assert walk.paths == [(0, 2) * 6]
    assert walk.sizes == [1] * 13


def test_orbit_tree_deeper_than_recursion_limit():
    sys = ternary_branch_system(Q53)
    walk = enumerate_orbits(sys, F(9, 16), 1000)
    assert walk.paths == [(0, 2) * 500]


def test_orbit_tree_boundary_split():
    sys = ternary_branch_system(Q53)
    walk = enumerate_orbits(sys, F(3, 5), 3)
    assert {path[0] for path in walk.paths} == {0, 2}


# -- the integer frontier walk at rational bases ---------------------------------


def _orbit_step(sys, level):
    """One breadth-first step on field elements: every applicable branch of
    every (path, point) entry, children in label order so that the next
    level stays in path order. Also returns the paths that forked."""
    nxt, forked = [], []
    for path, p in level:
        labels = sys.applicable(p)
        if len(labels) >= 2:
            forked.append(path)
        for lab in labels:
            nxt.append((path + (lab,), sys.branch(lab)(p)))
    return nxt, forked


def _reference_walk(sys, x, depth, max_cylinders):
    """The _orbit_step loop on field elements: paths, fork events, truncated
    flag and points, with the walk's truncation rule."""
    level = [((), sys.lift(x))]
    events = []
    for step in range(depth):
        level, forked = _orbit_step(sys, level)
        events.extend((step, path) for path in forked)
        if len(level) > max_cylinders:
            return level, events, True
    return level, events, False


@settings(max_examples=120, deadline=None)
@given(
    q=st.fractions(min_value=F(11, 10), max_value=F(19, 10), max_denominator=60),
    y=st.fractions(min_value=0, max_value=1, max_denominator=64),
    depth=st.integers(0, 12),
    max_cylinders=st.integers(1, 400),
)
# heights on domain ends: y = 1 sits on the closed top of branch 2 at every
# step, y = 1/q on the closed right end of branch 1, y = 0 on a closed left end
@example(F(5, 3), F(1, 1), 12, 400)
@example(F(5, 3), F(3, 5), 12, 400)
@example(F(7, 4), F(0, 1), 12, 400)
@example(F(3, 2), F(1, 2), 12, 3)
@example(F(6, 5), F(1, 3), 12, 400)
# the cap edge: at 5/3 and height 1/2 the walk's 12th level holds 205 paths
# and its 11th 147, so a cap of 205 keeps the walk whole and 204 truncates it
# at its last step
@example(F(5, 3), F(1, 2), 12, 205)
@example(F(5, 3), F(1, 2), 12, 204)
def test_integer_walk_matches_field_walk(q, y, depth, max_cylinders):
    sys = ternary_branch_system(AlgebraicNumber.from_rational(q))
    x = y / (q - 1)
    level, events, truncated = _reference_walk(sys, x, depth, max_cylinders)
    walk = enumerate_orbits(sys, x, depth, max_cylinders)
    paths = [path for path, _ in level]
    assert walk.paths == paths
    # path order is strictly ascending code order, which slices reads unsorted
    assert all(a < b for a, b in zip(walk.codes, walk.codes[1:]))
    assert walk.events == events
    assert walk.truncated == truncated
    assert walk.points() == [p for _, p in level]
    # every point has a branch, so each level is the set of prefixes of the last
    assert walk.sizes == [len({path[:n] for path in paths}) for n in range(len(walk.sizes))]


# -- the lattice kernel at algebraic bases ---------------------------------------

ALGEBRAIC_BASES = {f"bonacci:{k}": (lambda k=k: bonacci_root(k)) for k in range(2, 11)}
ALGEBRAIC_BASES["two-orbit"] = two_orbit_base
# the domain ends 0, 1/q, 1/(q(q-1)) and 1/(q-1), where the exact fallback decides
ENDS = ("hull_lo", "switch_lo", "switch_hi", "hull_hi")
algebraic_labels = st.sampled_from(sorted(ALGEBRAIC_BASES))
starts = st.one_of(st.fractions(min_value=0, max_value=1, max_denominator=64), st.sampled_from(ENDS))


def _start(sys, start):
    """A domain end by name, or the point of the height start."""
    if isinstance(start, str):
        return getattr(sys, start)
    return sys.lift(start) / (sys.q() - 1)


@settings(max_examples=60, deadline=None)
@given(label=algebraic_labels, start=starts, depth=st.integers(0, 16),
       max_cylinders=st.integers(1, 300))
@example("bonacci:3", "hull_lo", 16, 300)
@example("bonacci:3", "switch_lo", 16, 300)
@example("bonacci:5", "switch_hi", 16, 300)
@example("two-orbit", "hull_hi", 16, 300)
@example("bonacci:2", F(1, 2), 16, 3)  # truncates
def test_lattice_walk_matches_field_walk(label, start, depth, max_cylinders):
    sys = ternary_branch_system(ALGEBRAIC_BASES[label]())
    x = _start(sys, start)
    level, events, truncated = _reference_walk(sys, x, depth, max_cylinders)
    walk = enumerate_orbits(sys, x, depth, max_cylinders)
    paths = [path for path, _ in level]
    assert walk.paths == paths
    # path order is strictly ascending code order, which slices reads unsorted
    assert all(a < b for a, b in zip(walk.codes, walk.codes[1:]))
    assert walk.events == events
    assert walk.truncated == truncated
    assert walk.points() == [p for _, p in level]
    # every point has a branch, so each level is the set of prefixes of the last
    assert walk.sizes == [len({path[:n] for path in paths}) for n in range(len(walk.sizes))]


def _field_orbit(sys, p, depth):
    """The single-orbit walk on field elements: the reference the kernel
    walks are tested against."""
    return dynamics._single_orbit(
        p,
        lambda x: [(label, sys.branch(label)(x)) for label in sys.applicable(x)],
        lambda x: x,
        depth,
    )


@settings(max_examples=60, deadline=None)
@given(label=algebraic_labels, start=starts, depth=st.integers(0, 24))
@example("bonacci:3", "hull_lo", 24)
@example("bonacci:4", "switch_lo", 24)
@example("bonacci:6", "switch_hi", 24)
@example("two-orbit", "hull_hi", 24)
@example("bonacci:2", F(1, 2), 24)
def test_lattice_probe_matches_field_orbit(label, start, depth):
    q = ALGEBRAIC_BASES[label]()
    sys = ternary_branch_system(q)
    x = _start(sys, start)
    assert unique_orbit_check(q, x, depth) == _field_orbit(sys, x, depth)


@settings(max_examples=120, deadline=None)
@given(q=st.fractions(min_value=F(21, 20), max_value=F(39, 20), max_denominator=60),
       start=starts, depth=st.integers(0, 24))
@example(F(5, 3), F(3, 8), 24)  # a certified 2-cycle
@example(F(5, 3), "switch_lo", 24)
@example(F(5, 3), "switch_hi", 24)
@example(F(7, 4), "hull_hi", 24)
@example(F(1999, 1000), F(1, 2), 24)  # wanders to the depth bound
def test_rational_probe_matches_field_orbit(q, start, depth):
    base = AlgebraicNumber.from_rational(q)
    sys = ternary_branch_system(base)
    x = _start(sys, start)
    assert unique_orbit_check(base, x, depth) == _field_orbit(sys, x, depth)


def _slice3_witness():
    from qslice.thickness import find_slice3_witness

    q = AlgebraicNumber.from_rational(F(1999, 1000))
    res = find_slice3_witness(q, 48)[1]
    return q, res.y, 48


@pytest.mark.parametrize("case", [
    lambda: (AlgebraicNumber.from_rational(F(5, 3)), F(3, 8), 48),
    lambda: (AlgebraicNumber.from_rational(F(3, 2)), F(1, 3), 10),
    _slice3_witness,
], ids=["slice-rational", "dimension", "certify-slice3"])
def test_rational_probe_matches_field_orbit_at_leaf_points(case):
    # the points the slice decisions of the corpus probe
    q, y, depth = case()
    sys = ternary_branch_system(q)
    points = enumerate_orbits(sys, sys.lift(y) / (sys.q() - 1), depth).points()
    assert points
    for x in points:
        assert unique_orbit_check(q, x, depth) == _field_orbit(sys, x, depth)


@pytest.mark.parametrize("label", sorted(ALGEBRAIC_BASES))
def test_coarse_brackets_defer_to_the_exact_fallback(label, monkeypatch):
    # 2-bit brackets leave most domain tests open, so the walk and the
    # probes rest on the exact fallback; a fresh base builds its own kernel
    # under them and leaves the shared one alone
    monkeypatch.setattr(dynamics, "_BRACKET_BITS", 2)
    shared = ALGEBRAIC_BASES[label]()
    q = AlgebraicNumber(shared.min_poly, *shared.interval)
    sys = ternary_branch_system(q)
    for start in ENDS + (F(1, 3), F(4, 7)):
        x = _start(sys, start)
        level, events, truncated = _reference_walk(sys, x, 8, 60)
        walk = enumerate_orbits(sys, x, 8, 60)
        assert (walk.paths, walk.events, walk.truncated) == ([p for p, _ in level], events, truncated)
        assert unique_orbit_check(q, x, 16) == _field_orbit(sys, x, 16)


def test_lattice_kernel_at_a_non_unit_base():
    # 2x^2 - 2x - 1 is not monic, so the denominator grows at every step and
    # the probes compare points in lowest terms
    q = algebraic_from_poly([-1, -2, 2], 1, 2)
    sys = ternary_branch_system(q)
    assert sys._lattice.scale > 1
    for start in ENDS + (F(1, 3), F(2, 5), F(7, 9)):
        x = _start(sys, start)
        level, events, truncated = _reference_walk(sys, x, 8, 200)
        walk = enumerate_orbits(sys, x, 8, 200)
        assert (walk.paths, walk.events, walk.truncated) == ([p for p, _ in level], events, truncated)
        assert walk.points() == [p for _, p in level]
        assert unique_orbit_check(q, x, 16) == _field_orbit(sys, x, 16)
    # the fixed points 0 and 1/(q-1) close a cycle of length 1
    assert unique_orbit_check(q, sys.hull_hi, 16).cycle_length == 1


def test_one_system_and_kernel_per_base_object():
    q = bonacci_root(3)
    sys = ternary_branch_system(q)
    assert ternary_branch_system(q) is sys
    assert sys._lattice is sys._lattice
    # an equal base built separately is a different object, with its own
    # system, so no computation at one base inherits state from another
    fresh = AlgebraicNumber(q.min_poly, *q.interval)
    assert fresh == q
    assert ternary_branch_system(fresh) is not sys
    assert ternary_branch_system(fresh)._lattice is not sys._lattice


def test_kernel_keeps_no_state_per_walk():
    # the kernel lives as long as its base, here the process-wide
    # bonacci_root(3), so a walk or probe must leave nothing behind on it
    q = bonacci_root(3)
    lattice = ternary_branch_system(q)._lattice

    def retained():
        return {k: len(v) if hasattr(v, "__len__") else v for k, v in vars(lattice).items()}

    before = retained()
    for m in range(2, 40):
        x = _start(ternary_branch_system(q), F(1, m))
        enumerate_orbits(ternary_branch_system(q), x, 10)
        unique_orbit_check(q, x, 10)
    assert retained() == before


def test_walk_expands_each_distinct_point_once(monkeypatch):
    calls = []
    children = dynamics._Lattice.children

    def counted(self, v, den, branches):
        calls.append((v, den))
        return children(self, v, den, branches)

    monkeypatch.setattr(dynamics._Lattice, "children", counted)
    sys = ternary_branch_system(bonacci_root(2))
    x = _start(sys, F(1, 3))
    depth = 24
    walk = enumerate_orbits(sys, x, depth)
    # the distinct points of levels 0 .. depth - 1, walked as a set on
    # field elements
    level, expanded = {sys.lift(x)}, set()
    for _ in range(depth):
        expanded |= level
        level = {sys.branch(label)(p) for p in level for label in sys.applicable(p)}
    assert walk.sizes[-1] > len(expanded)  # paths do meet
    assert len(calls) == len(set(calls)) == len(expanded)


# -- conjugacy with the vertical inverse maps (test-only construction) ----------


@settings(max_examples=80, deadline=None)
@given(q=rational_bases, ynum=st.integers(0, 40))
def test_vertical_conjugacy(q, ynum):
    y = Fraction(ynum, 40)
    base = AlgebraicNumber.from_rational(q)
    sys = ternary_branch_system(base)
    x = y / (q - 1)

    u_inv = [
        (lambda t: q * t, lambda t: 0 <= t < F(1, 1) / q),
        (
            lambda t: (1 - q * t) / (2 - q),
            lambda t: 1 - F(1, 1) / q < t <= F(1, 1) / q,
        ),
        (lambda t: q * t + 1 - q, lambda t: 1 - F(1, 1) / q <= t <= 1),
    ]
    for i, (fn, dom) in enumerate(u_inv):
        in_dom = dom(y)
        assert in_dom == (i in sys.applicable(Fraction(x)))
        if in_dom:
            got = apply_map(sys, i, Fraction(x)).as_fraction()
            assert got == fn(y) / (q - 1)


def test_tail_is_orbit_exactness():
    sys = ternary_branch_system(Q53)
    assert tail_is_orbit(sys, tail([], [0, 2]), F(9, 16))
    assert not tail_is_orbit(sys, tail([], [0, 2]), F(1, 2))
    assert tail_is_orbit(sys, tail([], [0]), 0)
    assert tail_is_orbit(sys, tail([], [2]), F(3, 2))
