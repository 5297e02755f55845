import itertools
import random
import types
from fractions import Fraction as F
from math import lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from qslice import dynamics, slices
from qslice import words as words_module
from qslice.algebraic import (
    AlgebraicNumber, FieldElement, algebraic_from_poly, bonacci_root, multiplication_rows,
)
from qslice.bonacci import two_orbit_base
from qslice.dynamics import (
    UniqueOrbitStatus,
    enumerate_orbits,
    ternary_branch_system,
    unique_orbit_check,
    word_is_applicable,
)
from qslice.slices import (
    ClaimKind,
    OracleBoxes,
    SliceInputError,
    compute_slice,
    expansion_point,
    geometric_slice_oracle,
    slice_matches_oracle,
)
from qslice.words import (
    Alphabet, Word, project_q, reflect, successor, tail, ternary_code, ternary_digits,
    word_successor,
)


Q53 = AlgebraicNumber.from_rational(F(5, 3))

rational_bases = st.fractions(min_value=F(21, 20), max_value=F(39, 20), max_denominator=20)
heights = st.fractions(min_value=0, max_value=1, max_denominator=32)


def test_single_point_slice_certified():
    r = compute_slice(Q53, F(3, 8), 24)
    assert r.claim.kind == ClaimKind.ExactlyN
    assert r.claim.n == 1 and r.claim.certified
    assert len(r.cylinders) == 1
    # the unique point is 1/4, whose ternary expansion repeats 02
    limit = tail((), (0, 2), Alphabet.TERNARY)
    assert r.cylinders[0] == limit.prefix(24)
    assert r.forks == ()
    assert not r.truncated


def test_mirrored_single_point():
    r = compute_slice(Q53, F(5, 8), 24)
    assert r.claim.kind == ClaimKind.ExactlyN
    assert r.claim.n == 1 and r.claim.certified
    assert r.cylinders[0] == tail((), (2, 0), Alphabet.TERNARY).prefix(24)


def test_endpoint_slices():
    lo = compute_slice(Q53, 0, 10)
    hi = compute_slice(Q53, 1, 10)
    for r, digit in ((lo, 0), (hi, 2)):
        assert r.claim.kind == ClaimKind.ExactlyN
        assert r.claim.n == 1 and r.claim.certified
        assert r.cylinders[0].symbols == (digit,) * 10


def test_corner_height_keeps_one_spelling():
    # at y = 3/5 the slice contains x = 1/3; the box oracle sees both
    # ternary spellings of 1/3 but the dynamics keeps only 10^k
    r = compute_slice(Q53, F(3, 5), 10)
    boxes = geometric_slice_oracle(Q53, F(3, 5), 10)
    extra = set(boxes) - set(r.cylinders)
    assert extra == {Word(Alphabet.TERNARY, (0,) + (2,) * 9)}
    doomed = next(iter(extra))
    assert word_successor(doomed) in set(r.cylinders)
    assert word_successor(doomed).symbols == (1,) + (0,) * 9
    assert slice_matches_oracle(r, boxes)
    # the law fails when a surviving sequence has no box, or when a box
    # without one is not the doomed spelling of a surviving successor
    top, stray = ternary_code((2,) * 10), ternary_code((0,) * 10)
    assert {top, stray, stray + 1}.isdisjoint(r.codes)
    for codes in (boxes.codes - {r.codes[0]}, boxes.codes | {top}, boxes.codes | {stray}):
        assert not slice_matches_oracle(r, OracleBoxes(codes, 10))


def _reference_matches(result, boxes) -> bool:
    """The agreement law walked one box at a time: the reference for the
    set-algebra check."""
    alive = set(result.paths)
    boxed = 0
    for w in boxes:
        if w.symbols in alive:
            boxed += 1
        else:
            succ = successor(w.symbols, 3)
            if succ is None or succ not in alive:
                return False
    return boxed == len(alive)


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=F(11, 10), max_value=F(19, 10), max_denominator=60),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
    st.integers(0, 8),
    st.data(),
)
@example(F(5, 3), F(3, 5), 8, None)  # a doomed corner spelling among the boxes
@example(F(7, 4), F(5, 9), 8, None)
def test_cross_check_matches_the_box_loop(qf, y, depth, data):
    q = AlgebraicNumber.from_rational(qf)
    r = compute_slice(q, y, depth)
    view = geometric_slice_oracle(q, y, depth)
    codes = view.codes
    if data is None:  # the explicit examples: fixed mutations
        dropped, digits = min(codes), (1, 0, 2) * 3
    else:
        dropped = data.draw(st.sampled_from(sorted(codes)))
        digits = data.draw(st.lists(st.integers(0, 2), min_size=8, max_size=8))
    mutants = [
        OracleBoxes(codes - {dropped}, depth),
        OracleBoxes(codes | {ternary_code((2,) * depth)}, depth),
        OracleBoxes(codes | {ternary_code(digits[:depth])}, depth),
        OracleBoxes(codes, depth + 1),  # the same codes, one digit longer
    ]
    for boxes in (view, *mutants):
        assert slice_matches_oracle(r, boxes) == _reference_matches(r, boxes)


def test_oracle_agreement_random_bases():
    rng = random.Random(20260825)
    for _ in range(20):
        q = AlgebraicNumber.from_rational(F(rng.randint(26, 38), 20))
        y = F(rng.randint(0, 64), 64)
        r = compute_slice(q, y, 8)
        assert slice_matches_oracle(r, geometric_slice_oracle(q, y, 8))


def test_oracle_agreement_algebraic_base():
    q = bonacci_root(3)
    r = compute_slice(q, F(1, 2), 6)
    assert slice_matches_oracle(r, geometric_slice_oracle(q, F(1, 2), 6))


@settings(max_examples=30, deadline=None)
@given(rational_bases, heights)
def test_oracle_reflection_symmetry(qf, y):
    # the attractor is invariant under (x, y) -> (1-x, 1-y), and closed
    # boxes mirror exactly
    q = AlgebraicNumber.from_rational(qf)
    left = geometric_slice_oracle(q, y, 5)
    right = geometric_slice_oracle(q, 1 - y, 5)
    assert set(right) == {reflect(w) for w in left}


def _field_boxes(q, y, depth):
    """The box descent on field elements, as the oracle runs it at
    algebraic bases: the reference for its integer descent, as the codes
    of the words found."""
    g = q.gen()
    inv = 1 / g
    parts = ((inv, g.base.zero()), (1 - 2 * inv, inv), (inv, 1 - inv))
    frontier = [((), g.base.one(), g.base.zero())]
    for _ in range(depth):
        nxt = []
        for path, a, b in frontier:
            for lab, (s, o) in enumerate(parts):
                ca, cb = a * s, a * o + b
                lo, hi = (cb, ca + cb) if ca > 0 else (ca + cb, cb)
                if lo <= y <= hi:
                    nxt.append((path + (lab,), ca, cb))
        frontier = nxt
    return OracleBoxes(frozenset(ternary_code(path) for path, _, _ in frontier), depth)


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=F(11, 10), max_value=F(19, 10), max_denominator=60),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
    st.integers(0, 8),
)
@example(F(5, 3), F(3, 5), 8)  # a box corner on the line
@example(F(5, 3), F(1, 1), 8)
@example(F(7, 4), F(0, 1), 8)
# at the sweeps' oracle depth: y * a^n is an integer at every level at 5/3
# and 3/5 (box ends meet the line there) and at 3/2 and 1/3, and never at
# 3/2 and 1/2 or 1999/1000 and 1/2, where floor and ceil of y * a^n differ
@example(F(5, 3), F(3, 5), 12)
@example(F(3, 2), F(1, 3), 12)
@example(F(3, 2), F(1, 2), 12)
@example(F(1999, 1000), F(1, 2), 12)
def test_integer_oracle_matches_field_descent(qf, y, depth):
    q = AlgebraicNumber.from_rational(qf)
    assert geometric_slice_oracle(q, y, depth) == _field_boxes(q, y, depth)


ALGEBRAIC_BASES = {f"bonacci:{k}": (lambda k=k: bonacci_root(k)) for k in range(2, 11)}
ALGEBRAIC_BASES["two-orbit"] = two_orbit_base


def _height(q, y):
    """A height by value, or by name: the box corners 1/q and 1 - 1/q,
    which lie in Q(q) only."""
    inv = 1 / q.gen()
    return {"1/q": inv, "1-1/q": 1 - inv}.get(y, y)


# 2x^2 - 2x - 1 is not monic: the kernel's times_q step carries the
# denominator lead = 2 there (the oracle's over_q step, |p_0| = 1, none)
ORACLE_BASES = {**ALGEBRAIC_BASES, "2x^2-2x-1": lambda: algebraic_from_poly([-1, -2, 2], 1, 2)}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(ORACLE_BASES)),
    st.one_of(heights, st.sampled_from(["1/q", "1-1/q"])),
    st.integers(0, 8),
)
@example("bonacci:3", "1/q", 8)  # box corners on the line
@example("bonacci:7", "1-1/q", 8)
@example("two-orbit", F(0, 1), 8)
@example("bonacci:2", F(1, 1), 8)
@example("2x^2-2x-1", "1/q", 8)
@example("2x^2-2x-1", F(1, 3), 8)
def test_lattice_oracle_matches_field_descent(label, y, depth):
    q = ORACLE_BASES[label]()
    yv = _height(q, y)
    assert geometric_slice_oracle(q, yv, depth) == _field_boxes(q, yv, depth)


@pytest.mark.parametrize("label", sorted(ALGEBRAIC_BASES))
def test_coarse_box_brackets_defer_to_the_exact_fallback(label, monkeypatch):
    # 2-bit brackets leave most box tests open, so the descent rests on
    # the exact fallback
    monkeypatch.setattr(slices, "_BOX_BITS", 2)
    q = ALGEBRAIC_BASES[label]()
    for y in ("1/q", F(1, 3), F(4, 7)):
        yv = _height(q, y)
        assert geometric_slice_oracle(q, yv, 6) == _field_boxes(q, yv, 6)


# -- the dense routes the shift steps replaced, kept as references -----------


class _RefLattice(dynamics._Lattice):
    """The lattice kernel as it ran on dense d x d matrices: every branch
    multiplies by the integer matrix of its slope, from multiplication_rows,
    scaled by the least common denominator of the matrices."""

    def __init__(self, sys):
        base = sys.base
        self.brackets, self.spread = base.power_brackets(dynamics._BRACKET_BITS)
        matrices = {}  # slope -> (integer rows, denominator)
        for m in sys.maps:
            if m.slope not in matrices:
                matrices[m.slope] = multiplication_rows(m.slope)
        self.base = base
        self.scale = lcm(*(den for _, den in matrices.values()))
        self.offset_den = lcm(*(m.offset.den for m in sys.maps))
        self.maps = []
        for m in sys.maps:
            rows, den = matrices[m.slope]
            times = self.scale // den
            self.maps.append((
                m.label,
                [[c * times for c in row] for row in rows],
                [c * (self.offset_den // m.offset.den) * self.scale for c in m.offset.nums],
                self._end(m.lo, m.lo_closed),
                self._end(m.hi, m.hi_closed),
            ))

    def children(self, v, den, branches):
        centre = sum(map(mul, v, self.brackets))
        radius = self.spread * sum(map(abs, v))
        least, most = centre - radius, centre + radius
        out = []
        for label, rows, off, (lo_a, lo_b, lo), (hi_a, hi_b, hi) in branches:
            if (
                (least > lo_b or (most >= lo_a and self._side(v, den, lo, 1)))
                and (most < hi_a or (least <= hi_b and self._side(v, den, hi, -1)))
            ):
                out.append((label, tuple(sum(map(mul, row, v)) + o for row, o in zip(rows, off))))
        return out


def _ref_lattice_boxes(q, y, depth):
    """The box descent as it ran on dense matrices: every nonzero part
    coefficient m acts by the integer matrix of multiplication by m, scaled
    by their least common denominator L, and each child's two ends are
    compared with y."""
    g = q.gen()
    inv = 1 / g
    parts = ((inv, g.base.zero()), (1 - 2 * inv, inv), (inv, 1 - inv))
    base = y.base
    lows, width = base.power_brackets(slices._BOX_BITS)
    index, shared = {}, []
    for m in (c for part in parts for c in part):
        if m and m not in index:
            index[m] = len(shared)
            shared.append(multiplication_rows(m))
    scale = lcm(*(den for _, den in shared))
    matrices = [[[c * (scale // den) for c in row] for row in rows] for rows, den in shared]
    steps = [((lab,), index[s], index.get(o), s.sign()) for lab, (s, o) in enumerate(parts)]
    y_nums, y_den = y.nums, y.den
    y_centre = sum(map(mul, y_nums, lows))
    y_radius = width * sum(map(abs, y_nums))

    def versus_y(v):
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
        den *= scale
        y_lo = den * (y_centre - y_radius) // y_den
        y_hi = -(-den * (y_centre + y_radius) // y_den)
        next_paths, next_slopes, next_offsets, next_signs = [], [], [], []
        for path, a, b, sign in zip(paths, slopes, offsets, signs):
            images = [[sum(map(mul, row, a)) for row in rows] for rows in matrices]
            b = [c * scale for c in b]
            for tail_, si, oi, s_sign in steps:
                ca = images[si]
                cb = b if oi is None else [u + w for u, w in zip(images[oi], b)]
                top = [u + w for u, w in zip(ca, cb)]
                csign = sign * s_sign
                lo, hi = (cb, top) if csign > 0 else (top, cb)
                if versus_y(lo) <= 0 and versus_y(hi) >= 0:
                    next_paths.append(path + tail_)
                    next_slopes.append(ca)
                    next_offsets.append(cb)
                    next_signs.append(csign)
        paths, slopes, offsets, signs = next_paths, next_slopes, next_offsets, next_signs
    return OracleBoxes(frozenset(map(ternary_code, paths)), depth)


# lead and |p_0| above 1: every scale of the shift steps is at work
SHIFT_BASES = {
    **ORACLE_BASES,
    "2x^2-3": lambda: algebraic_from_poly([-3, 0, 2], 1, 2),
    "2x^2-2x-3": lambda: algebraic_from_poly([-3, -2, 2], 1, 2),
    "3x^3-3x-2": lambda: algebraic_from_poly([-2, -3, 0, 3], 1, 2),
}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(SHIFT_BASES)),
    st.one_of(heights, st.sampled_from(["1/q", "1-1/q"])),
    st.integers(0, 10),
)
@example("bonacci:2", F(1, 3), 10)
@example("bonacci:10", F(1, 2), 10)
@example("two-orbit", F(2, 5), 10)
@example("2x^2-2x-3", F(1, 3), 10)  # the golden pin's slice
@example("3x^3-3x-2", "1/q", 8)
@example("2x^2-3", "1-1/q", 8)
def test_shift_steps_match_dense_routes(label, y, depth):
    # fresh bases, so that the dense kernel and the shift kernel each build
    # their own brackets on the same interval
    shared = SHIFT_BASES[label]()
    q = AlgebraicNumber(shared.min_poly, *shared.interval)
    yv = slices._lift_unit_value(q, _height(q, y))
    assert geometric_slice_oracle(q, yv, depth) == _ref_lattice_boxes(q, yv, depth)

    sys = ternary_branch_system(q)
    ref_sys = dynamics._build_ternary_system(q)
    ref = vars(ref_sys)["_lattice"] = _RefLattice(ref_sys)
    lattice = sys._lattice
    assert lattice.scale == ref.scale
    x = yv * sys.hull_hi
    walk = enumerate_orbits(sys, x, depth, 300)
    dense = dynamics._lattice_walk(ref_sys, x, depth, 300)
    assert (walk.paths, walk.sizes, walk.forks, walk.truncated) == (
        dense.paths, dense.sizes, dense.forks, dense.truncated
    )
    points = walk.points()
    assert points == dense.points()
    for p in points[:20]:
        v, den = lattice.lift(p)
        # the same images over the same denominator, branch by branch
        assert lattice.children(v, den, lattice.branches(den)) == ref.children(v, den, ref.branches(den))
        assert unique_orbit_check(q, p, depth + 8) == dynamics._kernel_orbit(ref, p, depth + 8)


# the scale-1 lattices, two lattices whose scale is not 1, and a rational base
PROBE_BASES = {
    **ALGEBRAIC_BASES,
    "2x^2-3": SHIFT_BASES["2x^2-3"],
    "3x^3-3x-2": SHIFT_BASES["3x^3-3x-2"],
    "5/3": lambda: Q53,
}


def _field_probes(sys, points, depth):
    """The single-orbit walk of each point on field elements, the reference
    of the kernels' probes."""
    return tuple(
        dynamics._single_orbit(
            p,
            lambda x: [(label, sys.branch(label)(x)) for label in sys.applicable(x)],
            lambda x: x,
            depth,
        )
        for p in points
    )


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PROBE_BASES)), heights, st.integers(1, 16))
@example("bonacci:3", F(1, 3), 16)
@example("bonacci:10", F(1, 2), 16)
@example("two-orbit", F(2, 5), 16)
@example("2x^2-3", F(1, 3), 10)
@example("3x^3-3x-2", F(1, 2), 10)
@example("2x^2-3", F(1), 10)  # the fixed point 1/(q-1) closes a 1-cycle
@example("5/3", F(3, 8), 16)
def test_leaf_probes_match_field_orbits(label, y, depth):
    q = PROBE_BASES[label]()
    res = compute_slice(q, y, depth, max_cylinders=300)
    sys = ternary_branch_system(q)
    points = enumerate_orbits(sys, expansion_point(q, y), depth, 300).points()
    probes = tuple(unique_orbit_check(q, p, depth) for p in points)
    assert probes == _field_probes(sys, points, depth)
    assert res.leaf_probes in ((), probes)


@pytest.mark.parametrize("label", ["bonacci:3", "bonacci:5", "two-orbit"])
@pytest.mark.parametrize("other", [F(3, 7), F(1, 5)], ids=["same-den", "other-den"])
def test_probe_after_a_walk_at_another_height(label, other):
    # the kernel lives as long as its base, so a walk at another height,
    # over the same den or another, must not change a later probe
    q = ALGEBRAIC_BASES[label]()
    sys = ternary_branch_system(q)
    points = enumerate_orbits(sys, expansion_point(q, F(1, 7)), 12).points()
    enumerate_orbits(sys, expansion_point(q, other), 12)
    dens = {sys._lattice.lift(expansion_point(q, y))[1] for y in (F(1, 7), other)}
    assert (len(dens) == 1) == (other == F(3, 7))
    probes = tuple(unique_orbit_check(q, p, 20) for p in points)
    assert probes == _field_probes(sys, points, 20)


@pytest.mark.parametrize("label, y, depth", [("5/3", F(3, 5), 8), ("bonacci:3", "1/q", 6)])
def test_oracle_boxes_are_codes_of_one_length(label, y, depth):
    q = Q53 if label == "5/3" else ALGEBRAIC_BASES[label]()
    yv = _height(q, y)
    boxes = geometric_slice_oracle(q, yv, depth)
    assert boxes == _field_boxes(q, yv, depth)
    assert boxes.length == depth and type(boxes.codes) is frozenset
    # len counts the boxes; iterating decodes each code to a ternary word
    words = list(boxes)
    assert len(boxes) == len(words) == len(boxes.codes) > 1
    assert all(type(w) is Word and w.alphabet is Alphabet.TERNARY and len(w) == depth for w in words)
    assert {ternary_code(w.symbols) for w in words} == boxes.codes
    with pytest.raises(AttributeError):
        boxes.length = depth + 1


def test_oracle_uses_nothing_from_dynamics():
    # the cross-check is only independent while the oracle, and every
    # slices helper it calls, reads no name that comes from the dynamics
    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from names(const)

    seen, todo = set(), [slices.geometric_slice_oracle]
    while todo:
        fn = todo.pop()
        for name in set(names(fn.__code__)) - seen:
            seen.add(name)
            obj = getattr(slices, name, None)
            assert getattr(obj, "__module__", None) != "qslice.dynamics", name
            if isinstance(obj, types.FunctionType) and obj.__module__ == slices.__name__:
                todo.append(obj)
    assert "_integer_boxes" in seen
    assert "_lattice_boxes" in seen


FIELD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__truediv__", "__rtruediv__", "__pow__", "inverse", "sign",
    "__lt__", "__le__", "__gt__", "__ge__",
)


def test_rational_kernels_do_no_field_arithmetic_per_node(monkeypatch):
    count = [0]
    for name in FIELD_OPS:
        def counted(*args, _op=FieldElement.__dict__[name]):
            count[0] += 1
            return _op(*args)

        monkeypatch.setattr(FieldElement, name, counted)

    def measured(fn, q, y, depth):
        # a fresh base each time, so that each call builds its own system
        base = AlgebraicNumber.from_rational(q)
        count[0] = 0
        out = fn(base, y, depth)
        return count[0], out

    # at 7/4, y = 21/22 the leaf probes run at both depths, and at depth 12
    # one of them walks every step without forking
    for q, y in ((F(5, 3), F(1, 3)), (F(7, 4), F(21, 22))):
        (ops4, res4), (ops12, res12) = measured(compute_slice, q, y, 4), measured(compute_slice, q, y, 12)
        assert len(res12.paths) > len(res4.paths) and ops12 == ops4
        (ops4, boxes4), (ops12, boxes12) = (
            measured(geometric_slice_oracle, q, y, 4), measured(geometric_slice_oracle, q, y, 12)
        )
        assert len(boxes12) > len(boxes4) and ops12 == ops4
    assert any(p.status == UniqueOrbitStatus.UnknownAtDepth for p in res12.leaf_probes)
    (ops4, probe4), (ops30, probe30) = (
        measured(unique_orbit_check, F(1999, 1000), F(1, 2), 4),
        measured(unique_orbit_check, F(1999, 1000), F(1, 2), 30),
    )
    assert len(probe30.digits) == 30 and ops30 == ops4


def test_decision_builds_no_word_per_cylinder(monkeypatch):
    built = [0]
    init = Word.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    # untruncated with 9 leaf probes; untruncated with a doubling pattern,
    # so with no probe, and 35 boxes for 34 paths, so the cross-check meets
    # a doomed corner spelling; and truncated at 100 paths
    shapes = []
    for q, y, cap in ((F(5, 3), F(1, 20), 4096), (F(5, 3), F(3, 5), 4096), (F(3, 2), F(1, 2), 100)):
        base = AlgebraicNumber.from_rational(q)
        monkeypatch.setattr(Word, "__init__", counted)
        built[0] = 0
        res = compute_slice(base, y, 12, max_cylinders=cap)
        boxes = geometric_slice_oracle(base, y, 12)
        agrees = slice_matches_oracle(res, boxes)
        monkeypatch.undo()
        # each leaf probe spells its digits once; the paths and boxes stay tuples
        assert built[0] == len(res.leaf_probes)
        shapes.append((len(res.leaf_probes), len(boxes), len(res.paths)))
        assert "cylinders" not in vars(res)
        assert agrees or res.truncated
        assert res.cylinders == tuple(Word(Alphabet.TERNARY, p) for p in res.paths)
        assert res.cylinders is res.cylinders
    assert res.truncated and len(res.paths) > 100
    assert shapes[0][0] == 9 and shapes[1] == (0, 35, 34)


def test_slice_builds_one_system_and_one_kernel(monkeypatch):
    built = {"system": 0, "kernel": 0}
    build_system = dynamics._build_ternary_system
    build_kernel = dynamics._Lattice.__init__

    def system(q):
        built["system"] += 1
        return build_system(q)

    def kernel(self, sys):
        built["kernel"] += 1
        build_kernel(self, sys)

    monkeypatch.setattr(dynamics, "_build_ternary_system", system)
    monkeypatch.setattr(dynamics._Lattice, "__init__", kernel)
    # a fresh base, so that no earlier test's system is reused
    shared = bonacci_root(3)
    q = AlgebraicNumber(shared.min_poly, *shared.interval)
    r = compute_slice(q, F(2, 7), 24)
    assert len(r.leaf_probes) == len(r.cylinders) > 1
    assert built == {"system": 1, "kernel": 1}


def test_decision_refines_its_base_once(monkeypatch):
    # a sweep-style decision, depth 24, depth 12 and the oracle, on a fresh
    # base: the kernel and the box descent read one bracket table, so the
    # interval is refined to many bits once; an equal base built separately
    # pays for its own
    refinements = []
    refine_to = AlgebraicNumber.refine_to

    def counted(self, eps):
        refinements.append(self)
        return refine_to(self, eps)

    monkeypatch.setattr(AlgebraicNumber, "refine_to", counted)
    poly = bonacci_root(6).min_poly
    for _ in range(2):
        q = AlgebraicNumber(poly, F(1), F(2))
        compute_slice(q, F(1, 3), 24)
        check = compute_slice(q, F(1, 3), 12)
        assert slice_matches_oracle(check, geometric_slice_oracle(q, F(1, 3), 12))
        assert refinements == [q]
        refinements.clear()


def test_kernel_and_oracle_share_one_bracket_table():
    # the kernel's dynamics._BRACKET_BITS and the box descent's
    # slices._BOX_BITS are equal, so one algebraic decision computes one
    # table of power brackets
    shared = bonacci_root(6)
    q = AlgebraicNumber(shared.min_poly, *shared.interval)
    compute_slice(q, F(1, 3), 24)
    geometric_slice_oracle(q, F(1, 3), 12)
    assert len(q._brackets) == 1


GATE_BASES = {
    "3/2": lambda: AlgebraicNumber.from_rational(F(3, 2)),
    "5/3": lambda: Q53,
    "19/10": lambda: AlgebraicNumber.from_rational(F(19, 10)),
    "bonacci:3": lambda: bonacci_root(3),
    "bonacci:4": lambda: bonacci_root(4),
}


def test_exact_claims_survive_deeper_independent_decisions():
    # every height a/D in (0, 1) with D <= 40 at depth 24: an ExactlyN(n)
    # is certified, has odd n (for 0 < y < 1 Okamoto's function crosses y an
    # odd number of times, so an even count needs a tangent point), reads the
    # same at depth 96, and the oracle's depth-48 boxes form n separated
    # groups
    exact = {}
    for label, base in GATE_BASES.items():
        q = base()
        for den in range(2, 41):
            for num in range(1, den):
                y = F(num, den)
                if y.denominator != den:
                    continue
                claim = compute_slice(q, y, 24).claim
                if claim.kind != ClaimKind.ExactlyN:
                    continue
                exact[label, y] = claim.n
                assert claim.certified is True and claim.n % 2 == 1
                assert compute_slice(q, y, 96).claim == claim
                boxes = geometric_slice_oracle(q, y, 48)
                assert slices._adjacency_groups(sorted(boxes.codes)) == claim.n
    # the heights known to certify at depth 24 were checked, so the gate is
    # not vacuous
    assert {
        ("5/3", F(3, 8)), ("5/3", F(5, 8)), ("5/3", F(9, 40)), ("5/3", F(31, 40)),
        ("19/10", F(10, 29)), ("19/10", F(19, 29)),
    } <= set(exact)
    # separated cylinders whose probes certify nothing claim only AtLeastN:
    # 9/19 and 10/19 at 19/10 show two, which parity rules out
    for label, y in (("bonacci:4", F(1, 10)), ("19/10", F(9, 19)), ("19/10", F(10, 19))):
        assert (label, y) not in exact


# Heights x (q - 1) with x of the given base-q expansion, where a fork
# whose children both fork again is taken for uncountability: the walk
# counts 9, 11 and 7/16/25 paths at depths 10, 20 and 30, so the first two
# slices are finite and the third countably infinite (ROADMAP item 2).
DOUBLING_WITHOUT_PROOF = [
    (3, "010001101000", "01010"),
    (4, "11000000010000", "1001"),
    (3, "001101000", "011"),
]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="pattern claims carry no proof yet")
@pytest.mark.parametrize("k, pre, per", DOUBLING_WITHOUT_PROOF)
def test_doubling_fork_alone_claims_no_certified_uncountability(k, pre, per):
    q = bonacci_root(k)
    x = project_q(q, tail(map(int, pre), map(int, per)))
    r = compute_slice(q, x * (q.gen() - 1), 30)
    if r.claim.kind == ClaimKind.UncountablePattern:
        assert r.claim.certified is False


def test_uncountable_pattern_small_base():
    r = compute_slice(AlgebraicNumber.from_rational(F(3, 2)), F(1, 2), 8)
    assert r.claim.kind == ClaimKind.UncountablePattern
    step, path, children = r.claim.witness
    assert len(children) >= 2
    assert len(r.cylinders) > 64
    assert r.leaf_probes == ()


def test_truncation_without_pattern_is_unknown():
    r = compute_slice(Q53, F(3, 5), 6, max_cylinders=1)
    assert r.truncated
    assert r.claim.kind == ClaimKind.Unknown


def test_truncated_doubling_still_reports_pattern():
    r = compute_slice(AlgebraicNumber.from_rational(F(3, 2)), F(1, 2), 12, max_cylinders=32)
    assert r.truncated
    assert r.claim.kind == ClaimKind.UncountablePattern


def test_leaf_count_matches_orbit_tree():
    for qf, y, depth in ((F(5, 3), F(3, 5), 8), (F(3, 2), F(1, 2), 6)):
        q = AlgebraicNumber.from_rational(qf)
        r = compute_slice(q, y, depth)
        sys = ternary_branch_system(q)
        x0 = sys.lift(y) / (sys.q() - 1)
        walk = enumerate_orbits(sys, x0, depth)
        assert [c.symbols for c in r.cylinders] == walk.paths


def _applicable_words(sys, x0, depth):
    """Brute force: every word over the system's labels, of each length
    0..depth, that apply_map can follow from x0, in lexicographic order."""
    labels = [m.label for m in sys.maps]
    return [
        [
            w
            for w in itertools.product(labels, repeat=n)
            if word_is_applicable(sys, Word(Alphabet.TERNARY, w), x0)
        ]
        for n in range(depth + 1)
    ]


@settings(max_examples=60, deadline=None)
@given(rational_bases, heights, st.integers(0, 5), st.integers(0, 64))
@example(F(3, 2), F(1, 2), 0, 4096)
@example(F(3, 2), F(1, 2), 4, 0)
@example(F(3, 2), F(1, 2), 1, 1)
@example(F(5, 3), F(1, 3), 5, 64)
def test_walks_match_brute_force(qf, y, depth, max_cylinders):
    q = AlgebraicNumber.from_rational(qf)
    sys = ternary_branch_system(q)
    x0 = sys.lift(y) / (sys.q() - 1)
    words = _applicable_words(sys, x0, depth)
    # the slice walk stops after the first step whose level exceeds the cap
    over = [n for n in range(1, depth + 1) if len(words[n]) > max_cylinders]
    stop = over[0] if over else depth
    forks = [
        (n, w)
        for n in range(stop)
        for w in words[n]
        if sum(w + (lab,) in words[n + 1] for lab in (0, 1, 2)) >= 2
    ]

    r = compute_slice(q, y, depth, max_cylinders)
    assert [c.symbols for c in r.cylinders] == words[stop]
    assert r.truncated == bool(over)
    assert [(step, ternary_digits(code, step)) for step, code in r.forks] == forks

    walk = enumerate_orbits(sys, x0, depth)
    assert walk.sizes == [len(ws) for ws in words]
    assert walk.paths == words[depth]

    # the three branches cover their hull and map it into itself, so every
    # applicable word shorter than the depth has an applicable extension
    for n in range(depth):
        extended = {w[:n] for w in words[n + 1]}
        assert all(w in extended for w in words[n])


def test_input_validation():
    with pytest.raises(SliceInputError):
        compute_slice(Q53, F(3, 2), 4)
    with pytest.raises(SliceInputError):
        compute_slice(Q53, bonacci_root(3).gen() - 1, 4)


def test_expansion_point_scales_the_height():
    # the y / (q - 1) that the orbit-tree and dimension commands walk from
    for q in (Q53, bonacci_root(3)):
        sys = ternary_branch_system(q)
        assert expansion_point(q, F(1, 3)) == sys.lift(F(1, 3)) / (sys.q() - 1)
        assert expansion_point(q, 0) == 0 and expansion_point(q, 1) == sys.hull_hi
        for y in (F(-1, 3), F(5, 4)):
            with pytest.raises(SliceInputError, match=r"height must lie in \[0, 1\]"):
                expansion_point(q, y)




# -- ternary codes against the digit-tuple routines they replaced ------------------


def _ref_walk(sys, x, depth, cap):
    """The breadth-first walk on field elements with digit-tuple paths: the
    last level's paths, the (step, path) forks and the truncated flag."""
    level, events = [((), sys.lift(x))], []
    for step in range(depth):
        nxt = []
        for path, p in level:
            labels = sys.applicable(p)
            if len(labels) >= 2:
                events.append((step, path))
            nxt.extend((path + (lab,), sys.branch(lab)(p)) for lab in labels)
        level = nxt
        if len(level) > cap:
            return [path for path, _ in level], events, True
    return [path for path, _ in level], events, False


def _ref_doubling_witness(events):
    for s, p in events:
        seen_children = set()
        for s2, p2 in events:
            if s2 > s and len(p2) > len(p) and p2[: len(p)] == p:
                seen_children.add(p2[len(p)])
                if len(seen_children) >= 2:
                    return (s, p, tuple(sorted(seen_children)))
    return None


def _ref_adjacency_groups(paths):
    if not paths:
        return 0
    ordered = sorted(paths)
    return 1 + sum(successor(prev, 3) != cur for prev, cur in zip(ordered, ordered[1:]))


def _ref_matches(alive, boxes):
    """The agreement law on sets of digit tuples."""
    alive = set(alive)
    extra = boxes - alive
    if len(boxes) - len(extra) != len(alive):
        return False
    return all(successor(p, 3) in alive for p in extra)


code_bases = st.one_of(
    st.fractions(min_value=F(11, 10), max_value=F(19, 10), max_denominator=60),
    st.sampled_from(sorted(ALGEBRAIC_BASES)),
)


@settings(max_examples=80, deadline=None)
@given(code_bases, heights, st.integers(0, 8), st.integers(1, 300), st.integers(0, 8))
@example(F(3, 2), F(1, 2), 8, 300, 8)  # a doubling pattern
@example(F(3, 2), F(1, 2), 8, 20, 8)  # a doubling pattern in a truncated walk
@example(F(5, 3), F(3, 5), 8, 300, 8)  # a doomed corner spelling among the boxes
@example(F(5, 3), F(3, 8), 8, 300, 8)  # exactly n, each point certified
@example(F(5, 3), F(1, 2), 8, 40, 8)  # truncated before the oracle's depth
@example(F(5, 3), F(1, 20), 8, 300, 8)  # at least n, each point probed
@example("bonacci:3", F(1, 3), 8, 300, 5)
@example("two-orbit", F(2, 5), 8, 30, 8)
def test_codes_match_the_tuple_routines(label, y, depth, cap, box_depth):
    q = ALGEBRAIC_BASES[label]() if isinstance(label, str) else AlgebraicNumber.from_rational(label)
    sys = ternary_branch_system(q)
    paths, events, truncated = _ref_walk(sys, sys.lift(y) * sys.hull_hi, depth, cap)
    r = compute_slice(q, y, depth, cap)
    assert r.paths == tuple(paths) and r.length == len(paths[0])
    assert [(step, ternary_digits(code, step)) for step, code in r.forks] == events
    assert r.truncated == truncated
    witness, groups = _ref_doubling_witness(events), _ref_adjacency_groups(paths)
    assert slices._adjacency_groups(r.codes) == groups
    if witness is not None:
        expected = slices.uncountable_pattern(witness)
    elif truncated:
        expected = slices.unknown_cardinality()
    elif groups == len(paths) and all(
        p.status == UniqueOrbitStatus.UniqueCertified for p in r.leaf_probes
    ):
        expected = slices.exactly(len(paths))
    else:
        expected = slices.at_least(groups)
    assert r.claim == expected
    # the oracle at the walk's depth and at another, which a truncated walk
    # also meets: codes of unequal length must compare as tuples do
    for n in (depth, box_depth):
        boxes = geometric_slice_oracle(q, y, n)
        assert boxes == _field_boxes(q, slices._lift_unit_value(q, y), n)
        reference = {w.symbols for w in boxes}
        assert slice_matches_oracle(r, boxes) == _ref_matches(paths, reference)


def test_cross_check_of_unequal_lengths():
    # a depth-24 result against depth-12 boxes, and a truncated walk against
    # boxes at its requested depth: no box is a sequence's, so the law fails,
    # as it does on digit tuples
    deep, boxes = compute_slice(Q53, F(3, 5), 24), geometric_slice_oracle(Q53, F(3, 5), 12)
    cut = compute_slice(Q53, F(1, 2), 12, max_cylinders=40)
    assert deep.length == 24 and cut.truncated and cut.length < 12
    # at y = 0 the one path 0^24 and the one box 0^12 have the same code, 0
    bottom = compute_slice(Q53, 0, 24), geometric_slice_oracle(Q53, 0, 12)
    assert bottom[0].codes == (0,) and bottom[1].codes == {0}
    for r, view in ((deep, boxes), (cut, geometric_slice_oracle(Q53, F(1, 2), 12)), bottom):
        assert not _ref_matches(r.paths, {w.symbols for w in view})
        assert not slice_matches_oracle(r, view)
    # the last code of a length has no successor of that length: the
    # all-2s box is not a doomed spelling of any sequence
    shallow = compute_slice(Q53, F(3, 5), 12)
    assert slice_matches_oracle(shallow, boxes)
    top = ternary_code((2,) * 12)
    assert top not in boxes.codes
    assert not slice_matches_oracle(shallow, OracleBoxes(boxes.codes | {top}, 12))


def test_decisions_build_no_path_tuples(monkeypatch):
    decoded = []

    def refused(code, length):
        decoded.append((code, length))
        raise AssertionError("a decision decoded a path")

    for module in (words_module, dynamics, slices):
        monkeypatch.setattr(module, "ternary_digits", refused)
    # at least n with leaf probes; at least n with a doomed corner spelling
    # (5 boxes for 4 paths); truncated; and, at an algebraic base, the
    # lattice walk and descent
    for q, y, cap in (
        (Q53, F(1, 20), 4096), (AlgebraicNumber.from_rational(F(9, 5)), F(4, 9), 4096),
        (Q53, F(1, 20), 3), (bonacci_root(3), F(2, 7), 4096),
    ):
        r = compute_slice(q, y, 12, max_cylinders=cap)
        boxes = geometric_slice_oracle(q, y, 12)
        assert slice_matches_oracle(r, boxes) != r.truncated
        assert slice_matches_oracle(r, OracleBoxes(frozenset(), 12)) is False
        assert r.claim.kind is not ClaimKind.UncountablePattern
    assert decoded == []
    # a doubling pattern spells its one witness path, and nothing else
    with pytest.raises(AssertionError, match="decoded a path"):
        compute_slice(AlgebraicNumber.from_rational(F(3, 2)), F(1, 2), 8)
    assert len(decoded) == 1
