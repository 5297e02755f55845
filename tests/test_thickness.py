from collections import Counter, namedtuple
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from qslice import thickness
from qslice.algebraic import AlgebraicNumber, bonacci_root
from qslice.certificates import bracket, check, exact_check, from_json, to_json, verify
from qslice.slices import at_least, compute_slice
from qslice.thickness import (
    _START,
    BaseTooSmall,
    GapFamily,
    GapLaw,
    RefinementBudgetExceeded,
    ShiftSetAnalysis,
    ThicknessError,
    W2,
    build_aq_prefixes,
    enumerate_gaps,
    find_slice3_witness,
    fixed_expansion_of_one,
    h_q_interval,
    interleaving_check,
    newhouse_certify,
    prefix_run_length,
    thickness_lower_bound,
    w2_cover_check,
)
from qslice.words import Alphabet, Word, WordSyntaxError, member, run_limited

QBIG = AlgebraicNumber.from_rational(F(1999, 1000))

# one gap of a reference walk, as the gap records of the per-gap walks were
Gap = namedtuple("Gap", "level left right size bridge_lb meta")

mid_bases = st.fractions(min_value=F(21, 20), max_value=F(39, 20), max_denominator=40)


def test_hull_endpoints():
    lo, hi = h_q_interval(AlgebraicNumber.from_rational(F(5, 3)))
    assert hi.as_fraction() == F(15, 16)
    assert lo == -hi
    g = bonacci_root(3).gen()
    lo, hi = h_q_interval(bonacci_root(3))
    assert hi * (g * g - 1) == g


@settings(max_examples=25, deadline=None)
@given(mid_bases)
def test_cover_certificate_random_bases(qf):
    # two flush checks at each hull end and one overlap check per pair of
    # consecutive pieces
    checks = w2_cover_check(AlgebraicNumber.from_rational(qf))
    assert len(checks) == 4 + len(W2) - 1 == 8
    assert all(c.holds() for c in checks)


def test_cover_certificate_algebraic_base():
    assert all(c.holds() for c in w2_cover_check(bonacci_root(3)))


def test_prefix_run_length_table():
    cases = [
        (AlgebraicNumber.from_rational(F(3, 2)), 0),
        (bonacci_root(2), 0),
        (AlgebraicNumber.from_rational(F(5, 3)), 2),
        (bonacci_root(3), 2),
        (AlgebraicNumber.from_rational(F(19, 10)), 3),
        (QBIG, 9),
    ]
    for q, expected in cases:
        assert prefix_run_length(q) == expected


def test_fixed_expansion_frozen_prefix():
    c = fixed_expansion_of_one(QBIG, 24)
    assert c.symbols == (
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, -1, 0, 1, 1, 0, 0, 1, 0, 1, 0,
    )


@settings(max_examples=30, deadline=None)
@given(mid_bases)
@example(F(44, 23))  # odd prefix run: position 40 falls inside a pair
def test_fixed_expansion_invariant(qf):
    q = AlgebraicNumber.from_rational(qf)
    n = 40
    c = fixed_expansion_of_one(q, n)
    h = h_q_interval(q)[1].as_fraction()
    m = prefix_run_length(q)

    def defect(length):  # q^length times the residual after that many digits
        value = sum(F(ci) / qf ** (i + 1) for i, ci in enumerate(c.symbols[:length]))
        return (1 - value) * qf**length

    assert abs(defect(m + 2 * ((n - m) // 2))) <= h  # at the last completed pair
    assert abs(defect(n)) <= qf * h + 1
    assert c.symbols[:m] == (1,) * m
    for i in range(m, n - 1, 2):
        assert (c.symbols[i], c.symbols[i + 1]) in W2


def _prefixes(tpl, k):
    """All admissible length-k prefixes of the template, in increasing
    value order of the free bits read most-significant-first."""
    free = tpl.free_below(k)
    out = []
    for mask in range(2 ** len(free)):
        symbols = list(tpl.bits[:k])
        for idx, pos in enumerate(free):
            symbols[pos] = (mask >> (len(free) - 1 - idx)) & 1
        out.append(Word(Alphabet.BINARY, tuple(symbols)))
    return out


def test_template_structure():
    tpl = build_aq_prefixes(QBIG, 40)
    assert tpl.free_below(40) == (11, 13, 18, 21, 25, 29, 31, 34, 37)
    assert len(_prefixes(tpl, 12)) == 2
    spec = run_limited(9)
    words = _prefixes(tpl, 40)
    assert len(words) == 512
    assert all(member(spec, w) for w in words)


def test_partner_identity():
    # b = a - c is binary, run-limited and one unit below a, for c the
    # canonical expansion of 1
    tpl = build_aq_prefixes(QBIG, 40)
    c = fixed_expansion_of_one(QBIG, 40).symbols
    spec = run_limited(9)
    qf = F(1999, 1000)
    cval = sum(F(s) * (1 / qf) ** (i + 1) for i, s in enumerate(c))
    for a in _prefixes(tpl, 40)[::97]:
        b = Word(Alphabet.BINARY, tuple(ai - ci for ai, ci in zip(a.symbols, c)))
        assert set(b.symbols) <= {0, 1}
        assert member(spec, b)
        pa = sum(F(s) * (1 / qf) ** (i + 1) for i, s in enumerate(a.symbols))
        pb = sum(F(s) * (1 / qf) ** (i + 1) for i, s in enumerate(b.symbols))
        assert pa - pb == cval


def test_base_too_small_rejected():
    with pytest.raises(BaseTooSmall):
        build_aq_prefixes(bonacci_root(9), 20)
    with pytest.raises(BaseTooSmall):
        newhouse_certify(AlgebraicNumber.from_rational(F(3, 2)))


def test_shift_analysis_checks_the_run_bound_in_words():
    # one home for the run bound's lower limit: the follower states take
    # the check the run-limited families take
    with pytest.raises(WordSyntaxError, match="^run bound must be at least 2, got 1$"):
        ShiftSetAnalysis(QBIG, 1)


def test_follower_states_accept_the_run_limited_words():
    # the run-limited shift has two homes, the follower states that the gap
    # walks use and the forbidden factors that member reads: every binary
    # word up to length 12 is accepted by both or by neither
    for k in range(2, 7):
        ana = ShiftSetAnalysis(QBIG, k)
        level, accepted = [((), _START)], set()
        for _ in range(13):
            accepted.update(w for w, _ in level)
            level = [(w + (d,), t) for w, s in level for d, t in ana.successors(s)]
        spec = run_limited(k)
        assert accepted == {
            w
            for n in range(13)
            for w in product((0, 1), repeat=n)
            if member(spec, Word(Alphabet.BINARY, w))
        }


def reachable(ana):
    """The follower states reachable from the start, breadth first."""
    states = [_START]
    for s in states:
        for _, t in ana.successors(s):
            if t not in states:
                states.append(t)
    return states


def own_gap(ana, state):
    """A state's own gap (left end, right end, size) at unit scale, read off
    its children's extremes: the split between its digit-0 and digit-1
    child copies, or None when it has one successor or they overlap."""
    moves = ana.successors(state)
    if len(moves) != 2:
        return None
    (_, s0), (_, s1) = moves
    g = ana.q.gen()
    left, right = ana.vmax(s0) / g, (1 + ana.vmin(s1)) / g
    return (left, right, right - left) if right > left else None


def test_shift_analysis_exact_extremes():
    ana = ShiftSetAnalysis(QBIG, 9)
    g = QBIG.gen()
    assert len(reachable(ana)) == 19
    assert ana.vmin(("start",)) == 0
    assert ana.vmax(("start",)) == 1 / (g - 1)
    assert own_gap(ana, _START)[2] < g**-8
    sk = enumerate_gaps(QBIG, GapFamily.SkSet, 10)
    assert sk.hull == ((0, 0), (1 / (g - 1), 1 / (g - 1)))
    assert len(sk.gaps) == 17 and sk.gaps[0].size[0] < g**-8
    assert thickness_lower_bound(sk) > g**6


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=F(21, 20), max_value=F(39, 20), max_denominator=60).map(
        AlgebraicNumber.from_rational
    ),
    st.integers(min_value=2, max_value=12),
)
@example(bonacci_root(3), 4)
@example(bonacci_root(10), 9)
@example(QBIG, 9)
def test_every_branching_state_has_the_start_gap(q, k):
    # the one-gap lemma: every 1-child's least tail begins 0 into ("run", 0, 1)
    # and every 0-child's greatest tail begins 1 into ("run", 1, 1), so the
    # states that branch split by one gap, the analysis's unit gap, or none
    # of them has a gap
    ana = ShiftSetAnalysis(q, k)
    branching = [s for s in reachable(ana) if len(ana.successors(s)) == 2]
    if ana.gap is None:
        assert all(own_gap(ana, s) is None for s in branching)
    else:
        assert all(own_gap(ana, s) == ana.gap for s in branching)


def test_aq_gap_laws():
    g = QBIG.gen()
    gs = enumerate_gaps(QBIG, GapFamily.AqSet, 28)
    # one law per free position, standing for 2^idx translates
    assert [(r.level, r.count) for r in gs.gaps] == [
        (13, 1), (15, 2), (20, 4), (23, 8), (27, 16),
    ]
    assert gs.gap_count == 31
    for r in gs.gaps:
        assert g ** (-r.level) < r.size[0]
        assert r.size[1] < g ** (1 - r.level)
        assert r.bridge_lb > g ** (-r.level - 4)
    assert thickness_lower_bound(gs) > g**-5


@pytest.mark.parametrize("family, level", [(GapFamily.AqSet, 28), (GapFamily.SkSet, 10)])
def test_gaps_sorted_by_exact_size(family, level):
    sizes = [gap.size[0] for gap in enumerate_gaps(QBIG, family, level).gaps]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_scaled_family_is_affine_image():
    g = QBIG.gen()
    plain = enumerate_gaps(QBIG, GapFamily.SkSet, 6)
    scaled = enumerate_gaps(QBIG, GapFamily.ScaledShiftedSk, 6)
    assert len(plain.gaps) == len(scaled.gaps)
    for p, s in zip(plain.gaps, scaled.gaps):
        assert (s.meta, s.level, s.count) == (p.meta, p.level, p.count)
        assert s.left[0] == 1 + (2 - g) * p.left[0]
        assert s.right[0] == 1 + (2 - g) * p.right[0]
        assert s.size[0] == (2 - g) * p.size[0]
        assert s.bridge_lb == (2 - g) * p.bridge_lb
    assert scaled.hull[0][0] == 1
    assert scaled.hull[1][0] == 1 / (g - 1)


def test_interleaving_holds():
    aq = enumerate_gaps(QBIG, GapFamily.AqSet, 28)
    scaled = enumerate_gaps(QBIG, GapFamily.ScaledShiftedSk, 10)
    hull = (scaled.hull[0][0], scaled.hull[1][0])
    checks = interleaving_check(aq.hull, hull, scaled.gaps[0].size[0])
    assert len(checks) == 3
    assert all(c.holds() for c in checks)


@pytest.mark.parametrize(
    "q",
    [QBIG, AlgebraicNumber.from_rational(F(19, 10)), bonacci_root(10), bonacci_root(12)],
    ids=["1999/1000", "19/10", "bonacci:10", "bonacci:12"],
)
def test_shift_set_extent_matches_gap_walk(q):
    # the largest law is the reference walk's largest gap, and the scaled
    # laws' hull and largest gap are the scaled walk's
    g = q.gen()
    sk = enumerate_gaps(q, GapFamily.SkSet, 10)
    _, records = reference_sk_gaps(q, 9, 10)
    assert [law.size for law in sk.gaps[:1]] == [r.size for r in records[:1]]
    scaled = enumerate_gaps(q, GapFamily.ScaledShiftedSk, 10)
    hull, records = reference_sk_gaps(q, 9, 10, scale=2 - g, shift=g.base.one())
    assert scaled.hull == hull
    assert [law.size for law in scaled.gaps[:1]] == [r.size for r in records[:1]]


@pytest.mark.parametrize("qf", [F(19, 10), F(3, 2)])
def test_no_gap_shortcut_matches_the_walk(qf):
    # the start state has no gap at these bases, so the walk to level 12 and
    # the shortcut both give the bare hull
    q = AlgebraicNumber.from_rational(qf)
    g = q.gen()
    assert own_gap(ShiftSetAnalysis(q, 9), _START) is None
    plain = enumerate_gaps(q, GapFamily.SkSet, 12)
    hull, records = reference_sk_gaps(q, 9, 12)
    assert (plain.hull, plain.gaps, records) == (hull, (), [])
    scaled = enumerate_gaps(q, GapFamily.ScaledShiftedSk, 12)
    hull, records = reference_sk_gaps(q, 9, 12, scale=2 - g, shift=g.base.one())
    assert (scaled.hull, scaled.gaps, records) == (hull, (), [])


def test_newhouse_reads_the_shift_set_laws_once_at_level_ten(monkeypatch):
    calls = []
    laws = thickness._shift_set_laws
    monkeypatch.setattr(
        thickness,
        "_shift_set_laws",
        lambda ana, family, level: calls.append((family, level)) or laws(ana, family, level),
    )

    def sk_part(cert):
        checks = [c for c in cert.checks if c.label.startswith(("sk-", "product-"))]
        data = {key: value for key, value in cert.data.items() if key.startswith("shift-")}
        return checks, data

    parts = []
    for level in (12, 40):
        calls.clear()
        parts.append(sk_part(newhouse_certify(QBIG, level)))
        assert calls == [(GapFamily.SkSet, 10)]
    assert parts[0] == parts[1]
    assert len(parts[0][0]) == 3 and len(parts[0][1]["shift-thickness-per-state"]) == 17


def test_newhouse_certificate_round_trip():
    cert = newhouse_certify(QBIG, level=30)
    assert cert.claim == "thick-linked-intersection"
    assert cert.level == 30
    assert verify(cert) == []
    again = from_json(to_json(cert))
    assert check(again)


def count_slice_decisions(monkeypatch):
    calls = []
    engine = thickness.compute_slice
    monkeypatch.setattr(
        thickness, "compute_slice", lambda *a, **kw: calls.append(a[1]) or engine(*a, **kw)
    )
    return calls


def test_find_slice3_witness_shallow(monkeypatch):
    calls = count_slice_decisions(monkeypatch)
    height, res = find_slice3_witness(QBIG, depth=30)
    assert calls == [height]  # the slice engine decides one height, once
    assert res.y == height and 0 < height < 1
    assert res.claim == at_least(3)
    assert len(res.cylinders) == 3
    assert [w.symbols[0] for w in res.cylinders] == [0, 1, 2]
    assert res.branch_events == ((0, ()),)


def test_find_slice3_witness_decides_a_failed_height_once(monkeypatch):
    # at bonacci:10, depth 48, the first narrow overlap's height is decided
    # once and returned as it reads: its middle orbit's probe finds a
    # branch, so the walk proves only three separated groups
    calls = count_slice_decisions(monkeypatch)
    height, res = find_slice3_witness(bonacci_root(10), depth=48)
    assert calls == [height] and res.y == height
    assert res.claim == at_least(3)
    assert [p.status.value for p in res.leaf_probes].count("BranchFoundAt") == 1


def test_find_slice3_witness_raises_when_no_overlap_narrows(monkeypatch):
    # the pair search needs more than 20 steps to narrow an overlap to the
    # target width, so a budget of 20 decides no height
    calls = count_slice_decisions(monkeypatch)
    monkeypatch.setattr(thickness, "WITNESS_BUDGET", 20)
    with pytest.raises(RefinementBudgetExceeded, match="no overlap narrowed to a witness height"):
        find_slice3_witness(QBIG, depth=30)
    assert calls == []


def test_slice3_witness_height_is_not_three_points():
    # the 1999/1000 witness at depth 48 is the midpoint of an overlap, not a
    # point of the intersection: a deeper walk at that exact height finds
    # 49 cylinders in 45 separated groups
    height, _ = find_slice3_witness(QBIG, depth=48)
    deep = compute_slice(QBIG, height, 128)
    assert deep.claim == at_least(45) and len(deep.codes) == 49


def newhouse_bridges(gaps, lo, hi):
    """The bridge of each of the disjoint gaps (left, right, size), listed in
    position order inside the hull [lo, hi]: the shorter of the distances to
    the nearest gap at least as large, or to the hull end, on either side.
    One sweep keeps the gaps whose right bridge is still open, their sizes
    strictly decreasing toward the top of the stack."""
    bridges = [[None, hi - right] for _, right, _ in gaps]
    open_gaps = []
    for i, (left, _, size) in enumerate(gaps):
        last = None
        while open_gaps and gaps[open_gaps[-1]][2] <= size:
            last = open_gaps.pop()
            bridges[last][1] = left - gaps[last][1]
        if last is None or gaps[last][2] < size:
            last = open_gaps[-1] if open_gaps else None
        bridges[i][0] = left - (lo if last is None else gaps[last][1])
        open_gaps.append(i)
    return [min(pair) for pair in bridges]


def test_newhouse_bridges_reach_the_nearest_gap_as_large():
    # gaps of sizes 1, 2, 1, 2 in [0, 10]: the last one's left bridge ends at
    # the equal gap before it, the first one's at the hull end
    gaps = [(1, 2, 1), (3, 5, 2), (6, 7, 1), (8, 9, 2)]
    assert newhouse_bridges(gaps, 0, 10) == [1, 3, 1, 1]
    assert newhouse_bridges(gaps[1:2], 0, 10) == [3]


def reference_sk_gaps(q, k, level, scale=None, shift=None):
    """The shift-set gaps one by one, from a breadth-first walk that divides
    by q at every node and rescales every gap afterwards: the hull and the
    gaps, largest first, then left to right. Each bridge is read off the
    walk's own gaps (newhouse_bridges); a gap below the level is smaller
    than every gap of the walk, so these are the true bridges. No cap: the
    reference for the gap laws."""
    ana = ShiftSetAnalysis(q, k)
    g = q.gen()
    one = g.base.one()
    scale = one if scale is None else scale
    shift = g.base.zero() if shift is None else shift

    spans = []  # (level, left, right, size, meta) of each gap
    frontier = [(_START, g.base.zero(), one, 0)]
    for state, off, sc, d in frontier:
        if d >= level:
            continue
        gap = own_gap(ana, state)
        if gap is not None:
            left, right, size = gap
            gl = shift + scale * (off + sc * left)
            gr = shift + scale * (off + sc * right)
            spans.append((d, gl, gr, scale * sc * size, {"state": str(state)}))
        for dig, child in ana.successors(state):
            frontier.append((child, off + sc * (dig / g), sc / g, d + 1))

    hull_lo = shift + scale * ana.vmin(_START)
    hull_hi = shift + scale * ana.vmax(_START)
    spans.sort(key=lambda sp: sp[1])
    bridges = newhouse_bridges([sp[1:4] for sp in spans], hull_lo, hull_hi)
    records = [
        Gap(d, (gl, gl), (gr, gr), (size, size), bridge, meta)
        for (d, gl, gr, size, meta), bridge in zip(spans, bridges)
    ]
    records.sort(key=lambda r: (-r.size[0], r.left[0]))
    return ((hull_lo, hull_lo), (hull_hi, hull_hi)), records


def assert_laws_match_gaps(laws, records, key):
    """Group the reference gaps by free position or state: each group is one
    law, its length the law's count, its largest gaps at the law's level
    with the law's size and bridge, the leftmost of them at the law's ends,
    and every gap of it with the law's bridge-to-size ratio."""
    groups = {}
    for r in records:
        groups.setdefault(r.meta[key], []).append(r)
    assert all(law.meta.keys() == {key} for law in laws)
    assert {law.meta[key] for law in laws} == groups.keys()
    for law in laws:
        group = groups[law.meta[key]]
        assert len(group) == law.count
        top = min(r.level for r in group)
        largest = [r for r in group if r.level == top]
        leftmost = min(largest, key=lambda r: r.left[0])
        assert top == law.level
        assert {(r.size, r.bridge_lb) for r in largest} == {(law.size, law.bridge_lb)}
        assert (leftmost.left, leftmost.right) == (law.left, law.right)
        ratio = law.bridge_lb / law.size[1]
        assert all(r.bridge_lb / r.size[1] == ratio for r in group)
    assert sum(law.count for law in laws) == len(records)


def least_ratios(records):
    """Each state's least bridge-to-gap ratio over the reference gaps."""
    ratios = {}
    for r in records:
        state, ratio = r.meta["state"], r.bridge_lb / r.size[1]
        ratios[state] = min(ratios.get(state, ratio), ratio)
    return ratios


SK_CASES = [
    (AlgebraicNumber.from_rational(qf), k, levels)
    for qf in (F(1999, 1000), F(19, 10))
    for k in (3, 4, 9)
    for levels in ((0, 1, 2, 5, 8),)
] + [(bonacci_root(10), k, (0, 3, 6)) for k in (3, 4, 9)]


@pytest.mark.parametrize("q, k, levels", SK_CASES)
def test_sk_walk_matches_reference(q, k, levels):
    g = q.gen()
    ana = ShiftSetAnalysis(q, k)
    states = {str(s): s for s in reachable(ana)}
    for level in levels:
        for family, scale, shift in (
            (GapFamily.SkSet, g.base.one(), g.base.zero()),
            (GapFamily.ScaledShiftedSk, 2 - g, g.base.one()),
        ):
            gs = enumerate_gaps(q, family, level, k=k)
            hull, records = reference_sk_gaps(q, k, level, scale=scale, shift=shift)
            assert gs.hull == hull
            # the reference bridges are the true ones, so this also shows each
            # law's bridge bound sound and attained by every gap of the law
            assert_laws_match_gaps(gs.gaps, records, "state")
            # the bound is the shorter child copy's extent, scaled to the law
            for law in gs.gaps:
                children = [t for _, t in ana.successors(states[law.meta["state"]])]
                extent = min(ana.vmax(t) - ana.vmin(t) for t in children) / g
                assert law.bridge_lb == scale * g**-law.level * extent
            # a state has one node at its first depth: the law's largest gap
            firsts = Counter((r.meta["state"], r.level) for r in records)
            assert all(firsts[law.meta["state"], law.level] == 1 for law in gs.gaps)
            sizes = [law.size[0] for law in gs.gaps]
            assert sizes == sorted(sizes, reverse=True)


def test_sk_gap_count_past_the_old_record_cap():
    # the walk kept at most 4096 gap records; the law counts are exact
    gs = enumerate_gaps(QBIG, GapFamily.SkSet, 13)
    hull, records = reference_sk_gaps(QBIG, 9, 13)
    assert gs.gap_count == len(records) > 4096
    assert_laws_match_gaps(gs.gaps, records, "state")


@pytest.mark.parametrize("q, k", [(q, k) for q, k, _ in SK_CASES])
def test_thickness_bound_matches_reference_ratios(q, k):
    # every state with a gap is first reached by depth k - 1
    ratios = least_ratios(reference_sk_gaps(q, k, k + 1)[1])
    sk = enumerate_gaps(q, GapFamily.SkSet, k + 1, k=k)
    if not ratios:  # the child copies overlap at every state
        with pytest.raises(ThicknessError):
            thickness_lower_bound(sk)
        return
    assert thickness_lower_bound(sk) == min(ratios.values())
    assert {law.meta["state"]: law.bridge_lb / law.size[1] for law in sk.gaps} == ratios


def test_newhouse_builds_one_shift_analysis(monkeypatch):
    built = []

    class Counted(ShiftSetAnalysis):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(thickness, "ShiftSetAnalysis", Counted)
    newhouse_certify(QBIG, level=14)
    assert len(built) == 1


def reference_aq_bracket(template, assignment, upto, fill):
    """Horner over every template bit, as the bracket was first computed."""
    g = template.base.gen()
    ginv = 1 / g
    acc = g.base.zero()
    for pos in range(len(template.bits) - 1, -1, -1):
        bit = template.bits[pos]
        if bit is None:
            bit = assignment.get(pos, fill) if pos < upto else fill
        acc = acc * ginv + bit
    acc = acc * ginv
    return acc, acc + ginv ** len(template.bits) / (g - 1)


def reference_aq_gaps(q, level):
    """The branching family's gaps built one by one: each gap end from its
    own Horner bracket, each bridge from a scan for the nearest gap of
    equal or larger size, then sorted largest first."""
    template = build_aq_prefixes(q, level, margin=thickness.AQ_GAP_MARGIN)
    free = template.free_below(level)
    spans = []  # (level, left, right, meta) of each gap
    for idx, pos in enumerate(free):
        earlier = free[:idx]
        for mask in range(2 ** len(earlier)):
            assignment = {
                p: (mask >> (len(earlier) - 1 - i)) & 1 for i, p in enumerate(earlier)
            }
            left = reference_aq_bracket(template, {**assignment, pos: 0}, pos + 1, 1)
            right = reference_aq_bracket(template, {**assignment, pos: 1}, pos + 1, 0)
            spans.append((pos + 2, left, right, {"free_position": pos, "mask": mask}))
    hull_lo = reference_aq_bracket(template, {}, 0, 0)
    hull_hi = reference_aq_bracket(template, {}, 0, 1)

    # a gap's level orders its size: smaller level = larger gap
    spans.sort(key=lambda sp: sp[1][0])
    records = []
    for i, (lev, left, right, meta) in enumerate(spans):
        best = left[0] - hull_lo[1]
        for j in range(i - 1, -1, -1):
            if spans[j][0] <= lev:
                best = min(best, left[0] - spans[j][2][1])
                break
        for j in range(i + 1, len(spans)):
            if spans[j][0] <= lev:
                best = min(best, spans[j][1][0] - right[1])
                break
        else:
            best = min(best, hull_hi[0] - right[1])
        size = (right[0] - left[1], right[1] - left[0])
        records.append(Gap(lev, left, right, size, best, meta))
    records.sort(key=lambda r: (-r.size[0], r.left[0]))
    return (hull_lo, hull_hi), records


@pytest.mark.parametrize(
    "q, level",
    [(QBIG, 14), (QBIG, 28), (QBIG, 40), (bonacci_root(10), 24)],
    ids=["1999/1000-14", "1999/1000-28", "1999/1000-40", "bonacci:10-24"],
)
def test_aq_gaps_match_reference(q, level):
    hull, records = reference_aq_gaps(q, level)
    gs = enumerate_gaps(q, GapFamily.AqSet, level)
    assert gs.hull == hull
    assert_laws_match_gaps(gs.gaps, records, "free_position")
    assert [law.meta["free_position"] for law in gs.gaps] == list(
        build_aq_prefixes(q, level, margin=thickness.AQ_GAP_MARGIN).free_below(level)
    )


def test_aq_gaps_reference_below_nine_bonacci():
    q = AlgebraicNumber.from_rational(F(19, 10))
    with pytest.raises(BaseTooSmall):
        reference_aq_gaps(q, 30)
    with pytest.raises(BaseTooSmall):
        enumerate_gaps(q, GapFamily.AqSet, 30)


@pytest.mark.parametrize(
    "q, family, level",
    [(QBIG, GapFamily.AqSet, 30), (bonacci_root(12), GapFamily.AqSet, 20), (QBIG, GapFamily.SkSet, 10)],
    ids=["aq-1999/1000-30", "aq-bonacci:12-20", "sk9-1999/1000-10"],
)
def test_thickness_bound_is_the_least_law_ratio(q, family, level):
    # the per-gap bound: the least bridge-to-size ratio over every gap of the
    # reference walk (whose sk bridges are the true ones) is the law bound
    if family == GapFamily.AqSet:
        _, records = reference_aq_gaps(q, level)
    else:
        _, records = reference_sk_gaps(q, 9, level)
    expected = min(r.bridge_lb / r.size[1] for r in records)
    gs = enumerate_gaps(q, family, level, k=9)
    assert len(gs.gaps) < len(records)
    assert thickness_lower_bound(gs) == expected
    assert expected in {law.bridge_lb / law.size[1] for law in gs.gaps}


def reference_newhouse(q, level):
    """The certificate as first built: three aq checks per gap of the
    reference walk, the count and thickness read off its gaps; the shift
    set's thickness, largest gap and hull from the reference walk to level
    10, which meets every state with a gap at run bound 9."""
    g = q.gen()
    checks = w2_cover_check(q)
    hull, records = reference_aq_gaps(q, level)
    if not records:
        raise ThicknessError("no gaps enumerated")
    for i, r in enumerate(records):
        k = r.level
        checks.append(exact_check(f"aq-gap-{i}-below", "lt", r.size[1], g ** (1 - k)))
        checks.append(exact_check(f"aq-gap-{i}-above", "lt", g ** (-k), r.size[0]))
        checks.append(exact_check(f"aq-gap-{i}-bridge", "lt", g ** (-k - 4), r.bridge_lb))
    (sk_lo, sk_hi), sk_records = reference_sk_gaps(q, 9, 10)
    ratios = least_ratios(sk_records)
    tau_s, largest = min(ratios.values()), sk_records[0].size[0]
    checks.append(exact_check("sk-largest-gap", "lt", largest, g**-8))
    checks.append(exact_check("sk-thickness", "lt", g**6, tau_s))
    checks.append(exact_check("product-exceeds-one", "lt", 1, g**-5 * tau_s))
    scaled_hull = (1 + (2 - g) * sk_lo[0], 1 + (2 - g) * sk_hi[0])
    checks.extend(interleaving_check(hull, scaled_hull, (2 - g) * largest))
    data = {
        "base": bracket(g),
        "aq-gap-count": len(records),
        "shift-thickness": bracket(tau_s),
        "shift-thickness-per-state": {s: bracket(r) for s, r in ratios.items()},
        "aq-thickness-enumerated": bracket(min(r.bridge_lb / r.size[1] for r in records)),
    }
    return checks, data


def _is_aq(c):
    return c.label.startswith("aq-")


@pytest.mark.parametrize(
    "q, level",
    [
        (QBIG, 12), (QBIG, 30), (QBIG, 40),
        (bonacci_root(10), 12), (bonacci_root(10), 20),
        (bonacci_root(12), 20),
    ],
    ids=[
        "1999/1000-12", "1999/1000-30", "1999/1000-40",
        "bonacci:10-12", "bonacci:10-20", "bonacci:12-20",
    ],
)
def test_newhouse_checks_each_position_law_once(q, level):
    ref_checks, ref_data = reference_newhouse(q, level)
    cert = newhouse_certify(q, level)
    free = build_aq_prefixes(q, level, margin=thickness.AQ_GAP_MARGIN).free_below(level)

    def triple(c):
        return c.relation, c.lhs, c.rhs

    aq = [c for c in cert.checks if _is_aq(c)]
    assert {triple(c) for c in aq} == {triple(c) for c in ref_checks if _is_aq(c)}
    assert len(aq) == len({triple(c) for c in aq}) == 3 * len(free)
    assert [c.label for c in aq] == [
        f"aq-position-{p}-{side}" for p in free for side in ("below", "above", "bridge")
    ]
    assert [c for c in cert.checks if not _is_aq(c)] == [
        c for c in ref_checks if not _is_aq(c)
    ]
    assert cert.data == ref_data
    assert cert.level == level and verify(cert) == []


def test_newhouse_builds_no_gap_record(monkeypatch):
    built = []

    class Counted(GapLaw):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(thickness, "GapLaw", Counted)
    # 25 free positions below level 60: 2^25 - 1 gaps, 25 laws, 75 aq checks;
    # and one law for each of the 17 follower states with a gap
    cert = newhouse_certify(bonacci_root(10), 60)
    assert len(built) == 25 + 17
    assert sum(map(_is_aq, cert.checks)) == 75
    assert cert.data["aq-gap-count"] == 2**25 - 1


@pytest.mark.parametrize(
    "q, level", [(QBIG, 11), (bonacci_root(12), 12)], ids=["1999/1000-11", "bonacci:12-12"]
)
def test_newhouse_without_free_position_reports_no_gaps(q, level):
    # the first free position is 11 at 1999/1000 and 13 at bonacci:12
    assert build_aq_prefixes(q, level, margin=thickness.AQ_GAP_MARGIN).free_below(level) == ()
    for certify in (newhouse_certify, reference_newhouse):
        with pytest.raises(ThicknessError, match="no gaps enumerated"):
            certify(q, level)
