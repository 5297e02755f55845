"""End-to-end acceptance checks, one test per headline capability.

Run with -v to get one verdict line per criterion. Each test enforces its
own wall-clock budget where one is part of the contract; budgets are
asserted inside the test so a pass line always means "correct and fast
enough".
"""

import json
import random
import time
from fractions import Fraction

import pytest

from qslice.algebraic import (
    AlgebraicNumber,
    Ordering,
    bonacci_root,
    compare_reals,
)
from qslice.bonacci import (
    C2Outcome,
    c2_probe,
    null_infinite_probe,
    two_orbit_base,
    verify_odd_cardinality,
)
from qslice.certificates import verify
from qslice.cli import run
from qslice.dimension import (
    box_dimension_estimate,
    branching_pair_search,
    build_r_tree,
    dimension_lower_bound,
    estimate_M,
)
from qslice.dynamics import enumerate_orbits, ternary_branch_system
from qslice.slices import (
    at_least,
    compute_slice,
    geometric_slice_oracle,
    slice_matches_oracle,
)
from qslice.thickness import (
    _START,
    GapFamily,
    ShiftSetAnalysis,
    enumerate_gaps,
    find_slice3_witness,
    fixed_expansion_of_one,
    interleaving_check,
    prefix_run_length,
    thickness_lower_bound,
)
from qslice.words import (
    Alphabet,
    Word,
    lex_consecutive,
    member,
    project_q,
    run_limited,
    tail,
    ternary_digits,
    word,
)

QBIG = AlgebraicNumber.from_rational(Fraction(1999, 1000))


def _verdict(n: int, start: float, limit: float | None) -> None:
    elapsed = time.monotonic() - start
    if limit is not None:
        assert elapsed < limit, f"criterion {n}: {elapsed:.1f}s over the {limit}s budget"
        print(f"criterion {n}: PASS in {elapsed:.2f}s (budget {limit}s)")
    else:
        print(f"criterion {n}: PASS in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def aq_gaps_level40():
    return enumerate_gaps(QBIG, GapFamily.AqSet, 40)


def test_criterion_01_single_point_slice(capsys):
    start = time.monotonic()
    code = run(["slice", "--q", "5/3", "--y", "3/8", "--depth", "48"])
    out = capsys.readouterr().out
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["claim"] == {"type": "ExactlyN", "n": 1, "certified": True}
    assert len(rec["cylinders"]) == 1 and rec["depth"] == 48
    _verdict(1, start, 5.0)


def test_criterion_02_odd_orbit_counts():
    delta = tail([], [0, 1])
    for k, ms in ((3, (1, 2, 3, 4)), (4, (1, 2))):
        for m in ms:
            start = time.monotonic()
            cert = verify_odd_cardinality(k, m, delta=delta, depth=60)
            assert cert.data["count"] == 2 * m + 1
            assert verify(cert) == []
            # every orbit individually carries an eternal certificate
            assert all(r is not None for r in cert.data["leaf-routes"])
            assert time.monotonic() - start < 30.0
    _verdict(2, time.monotonic(), None)


def test_criterion_03_null_infinite_structure():
    start = time.monotonic()
    cert = null_infinite_probe(3, depth=40)
    assert verify(cert) == []
    # one re-branching child per branch point: the orbit count at depth d
    # grows by one per completed loop, never faster
    assert cert.data["branches-at-depth"] == (40 - 1) // 3 + 2
    _verdict(3, start, 10.0)


def test_criterion_04_three_orbit_pipeline(aq_gaps_level40):
    start = time.monotonic()
    g = QBIG.gen()
    tau_aq = thickness_lower_bound(aq_gaps_level40)
    assert tau_aq > g**-5

    # the scaled shift set's gap laws: an affine image keeps the thickness
    sk = enumerate_gaps(QBIG, GapFamily.ScaledShiftedSk, 10)
    tau_s = thickness_lower_bound(sk)
    assert tau_s > g**6

    hull, gap = (sk.hull[0][0], sk.hull[1][0]), sk.gaps[0].size[0]
    assert all(c.holds() for c in interleaving_check(aq_gaps_level40.hull, hull, gap))

    assert tau_aq * tau_s > 1

    height, res = find_slice3_witness(QBIG, depth=48)
    assert res.y == height and 0 < height < 1
    assert res.claim == at_least(3)
    assert res.depth == 48 and len(res.cylinders) == 3
    # a single three-way fork at the root, then straight lines
    assert [(step, ternary_digits(code, step)) for step, code in res.forks] == [(0, ())]
    _verdict(4, start, 300.0)


def test_criterion_05_gap_laws(aq_gaps_level40):
    start = time.monotonic()
    g = QBIG.gen()
    gaps = aq_gaps_level40.gaps
    assert gaps and len(gaps) < 4096  # enumeration completed, not capped
    assert max(r.level for r in gaps) <= 40
    for r in gaps:
        k = r.level
        assert g**-k < r.size[0]
        assert r.size[1] < g ** (-k + 1)
        assert r.bridge_lb > g ** (-k - 4)
    # the largest gap: every branching state splits its child copies by the
    # start state's split
    ana = ShiftSetAnalysis(QBIG, 9)
    (_, s0), (_, s1) = ana.successors(_START)
    assert (1 + ana.vmin(s1) - ana.vmax(s0)) / g < g**-8
    _verdict(5, start, None)


def test_criterion_06_inequality_grids():
    start = time.monotonic()
    for k in (2, 3, 9):
        lo = bonacci_root(k).refine_to(Fraction(1, 10**8))[1]
        step = (2 - lo) / 201
        next_root = bonacci_root(k + 1)
        in_window = 0
        for i in range(200):
            qa = AlgebraicNumber.from_rational(lo + i * step)
            g = qa.gen()
            two_minus = 2 - g
            assert 0 < two_minus < g**-k
            head = g**k - sum(g**j for j in range(k))
            assert 0 < head < 1
            if compare_reals(qa, next_root) != Ordering.Greater:
                in_window += 1
                assert g ** (-k - 1) <= two_minus
                assert head <= 1 / g
            assert (
                project_q(qa, tail([0] + [1] * k, [0]))
                < project_q(qa, tail([1], [0]))
                < project_q(qa, tail([0], [1]))
                < project_q(qa, tail([1] + [0] * k, [1]))
            )
            assert project_q(qa, tail([], [0] + [1] * (k - 1))) < project_q(
                qa, tail([1], [0])
            )
            assert project_q(qa, tail([0], [1])) < project_q(
                qa, tail([], [1] + [0] * (k - 1))
            )
        assert in_window > 0  # both branches of the window rule exercised
    for k in range(2, 13):
        g = bonacci_root(k).gen()
        assert 2 - g == g**-k
    _verdict(6, start, 30.0)


def test_criterion_07_cylinder_intersection_law():
    start = time.monotonic()
    qf = Fraction(18493, 10000)
    assert compare_reals(
        AlgebraicNumber.from_rational(qf), bonacci_root(3)
    ) == Ordering.Greater
    spec = run_limited(3)
    top_tail = 1 / (qf - 1)
    words = []
    for l in range(1, 11):
        if l == 1:
            words = [word([0]), word([1])]
        else:
            words = [
                Word(Alphabet.BINARY, w.symbols + (b,))
                for w in words
                for b in (0, 1)
                if member(spec, Word(Alphabet.BINARY, w.symbols + (b,)))
            ]
        vals = []
        for w in words:
            acc = Fraction(0)
            for s in reversed(w.symbols):
                acc = (acc + s) / qf
            vals.append((w, acc, acc + top_tail / qf**l))
        for i, (wi, ilo, ihi) in enumerate(vals):
            for wj, jlo, jhi in vals[i + 1 :]:
                meet = max(ilo, jlo) <= min(ihi, jhi)
                consec = lex_consecutive(wi, wj) or lex_consecutive(wj, wi)
                assert meet == consec, (l, wi.symbols, wj.symbols)
    _verdict(7, start, 60.0)


def test_criterion_08_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20260825)
    done = draws = 0
    while done < 100:
        draws += 1
        assert draws < 400
        den = rng.randint(3, 48)
        num = rng.randint(den + 1, 2 * den - 1)
        yden = rng.randint(1, 64)
        y = Fraction(rng.randint(0, yden), yden)
        qa = AlgebraicNumber.from_rational(Fraction(num, den))
        res = compute_slice(qa, y, 12, max_cylinders=20000)
        if res.truncated:
            # an incomplete enumeration has no depth-12 word set to compare
            continue
        boxes = geometric_slice_oracle(qa, y, 12)
        assert slice_matches_oracle(res, boxes), (num, den, y)
        done += 1
    assert done == 100
    _verdict(8, start, None)


def test_criterion_09_fixed_expansion_soundness():
    start = time.monotonic()
    rng = random.Random(77)
    for _ in range(50):
        den = rng.randint(3, 64)
        num = rng.randint(den + 1, 2 * den - 1)
        qa = AlgebraicNumber.from_rational(Fraction(num, den))
        g = qa.gen()
        w = fixed_expansion_of_one(qa, 60)
        err = 1 - project_q(qa, w)
        if err < 0:
            err = -err
        assert err <= g**-60 / (g - 1), (num, den)
        m = prefix_run_length(qa)
        # the window rule, checked against the roots themselves
        if m == 0:
            assert compare_reals(qa, bonacci_root(2)) != Ordering.Greater
        else:
            assert m >= 2
            assert compare_reals(qa, bonacci_root(m)) == Ordering.Greater
            assert compare_reals(qa, bonacci_root(m + 1)) != Ordering.Greater
        assert all(s == 1 for s in w.symbols[:m])
    _verdict(9, start, None)


def test_criterion_10_dimension_pipeline():
    start = time.monotonic()
    q = AlgebraicNumber.from_rational(Fraction(3, 2))
    pair = branching_pair_search(q, Fraction(1, 3))
    b = pair.branch_point  # a point whose orbit provably forks

    m_bound = estimate_M(q)
    assert m_bound >= 1

    tree = build_r_tree(q, b, 6, m_bound=m_bound)
    assert tree.validate() == []
    leaves = tree.leaves()
    assert sum(Fraction(1, 2**6) for _ in leaves) == 1  # exact mass conservation

    sys_ = ternary_branch_system(q)
    depths = list(range(8, 17))
    counts = enumerate_orbits(sys_, b, depths[-1]).sizes[depths[0]:]
    estimate, _ = box_dimension_estimate(counts, depths)
    assert dimension_lower_bound(m_bound) <= estimate + 0.05
    _verdict(10, start, 120.0)


def test_criterion_11_two_orbit_probes():
    start = time.monotonic()
    rep = c2_probe(bonacci_root(3))
    assert rep.outcome == C2Outcome.NotTwo
    assert rep.exhibited_pair is not None
    a, b = rep.exhibited_pair
    assert a != b

    # An eventually periodic expansion of 1 in base q forces q to be a root
    # of a monic integer polynomial, and such roots are never non-integer
    # rationals. So the eternal two-orbit certificate is only reachable at
    # algebraic irrational bases; the cubic base below certifies through the
    # run-limited shift route, and rational probes must stay honest.
    star = c2_probe(two_orbit_base())
    assert star.outcome == C2Outcome.TwoOrbitsCertified
    assert "shift-membership" in star.route
    assert star.certificate is not None and verify(star.certificate) == []

    for nm, dn in ((9, 5), (19, 10), (199, 100), (1999, 1000)):
        r = c2_probe(AlgebraicNumber.from_rational(Fraction(nm, dn)))
        assert r.outcome != C2Outcome.TwoOrbitsCertified
    _verdict(11, start, 60.0)
