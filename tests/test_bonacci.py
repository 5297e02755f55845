import re
from fractions import Fraction

import pytest

from qslice import bonacci
from qslice.algebraic import (
    AlgebraicNumber, Ordering, algebraic_from_poly, bonacci_root, compare_reals,
)
from qslice.bonacci import (
    C2Outcome,
    CertificationFailed,
    DeltaNotInSTilde,
    c2_probe,
    null_infinite_probe,
    periodic_expansions_of_one,
    two_orbit_base,
    verify_odd_cardinality,
    x_m_witness,
)
from qslice.certificates import check, from_json, to_json, verify
from qslice.dynamics import tail_is_orbit, ternary_branch_system
from qslice.slices import compute_slice, exactly
from qslice.words import Alphabet, member, project_q, run_limited, run_limited_strict, tail


def test_x_m_value_closed_form():
    q, x, t = x_m_witness(3, 1)
    g = q.gen()
    # one, three zeros, then the alternating tail
    assert t.preperiod == (1, 0, 0, 0)
    assert t.period == (0, 1)
    assert x == g**-1 + g**-4 * (1 / (g**2 - 1))


def test_x_m_rejects_bad_tails():
    with pytest.raises(DeltaNotInSTilde, match="uniform runs of length k = 3"):
        x_m_witness(3, 1, tail((0, 0, 0), (0, 1)))
    with pytest.raises(DeltaNotInSTilde, match=r"barred cycle \(011\)\*"):
        x_m_witness(3, 1, tail((), (0, 1, 1)))
    with pytest.raises(DeltaNotInSTilde, match=r"barred cycle \(1000\)\*"):
        x_m_witness(4, 0, tail((1,), (0, 0, 0, 1)))
    # the k = 2 shift is empty, whether or not a tail is given
    for delta in (None, tail((), (0, 1)), tail((), (0, 0, 1))):
        with pytest.raises(DeltaNotInSTilde, match="empty below k = 3"):
            x_m_witness(2, 1, delta)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_odd_cardinality_counts(m):
    cert = verify_odd_cardinality(3, m)
    assert cert.data["count"] == 2 * m + 1
    assert cert.level == m
    assert verify(cert) == []
    # the certificate's height is y = x(q-1), not the expansion point x,
    # and the slice engine reads it as exactly 2m+1 points
    q, x, _ = x_m_witness(3, m)
    y = x * (q.gen() - 1)
    lo, hi = cert.data["height"]
    assert Fraction(lo) <= y <= Fraction(hi)
    assert compute_slice(q, y, cert.depth).claim == exactly(2 * m + 1)


def test_odd_cardinality_other_tail():
    cert = verify_odd_cardinality(3, 2, tail((), (0, 0, 1, 1)))
    assert cert.data["count"] == 5
    assert check(cert)


def test_odd_cardinality_json_round_trip():
    cert = verify_odd_cardinality(3, 1)
    again = from_json(to_json(cert))
    assert again.claim == cert.claim
    assert again.checks == cert.checks
    assert again.data["count"] == 3
    assert verify(again) == []


def test_null_infinite_probe_structure():
    cert = null_infinite_probe(3, depth=30)
    assert cert.data["branches-at-depth"] == 11
    assert cert.data["loop-digits"] == [0, 2, 2]
    assert verify(cert) == []
    assert verify(from_json(to_json(cert))) == []


def test_null_infinite_probe_other_k():
    cert = null_infinite_probe(4, depth=30)
    # one fork per completed loop, plus the path still looping
    assert cert.data["branches-at-depth"] == (30 - 1) // 4 + 2
    assert check(cert)


def test_c2_tribonacci_branches():
    q3 = bonacci_root(3)
    r = c2_probe(q3)
    assert r.outcome == C2Outcome.NotTwo
    assert r.branch_step == 2
    a, b = r.exhibited_pair
    assert a != b
    sys = ternary_branch_system(q3)
    one = sys.lift(1)
    assert tail_is_orbit(sys, a, one)
    assert tail_is_orbit(sys, b, one)


def test_c2_tribonacci_pair_values():
    # both exhibited routes use only the two translation branches, so they
    # double as binary expansions of 1
    q3 = bonacci_root(3)
    r = c2_probe(q3)
    for t in r.exhibited_pair:
        binary = tail(
            tuple(d // 2 for d in t.preperiod),
            tuple(d // 2 for d in t.period),
            Alphabet.BINARY,
        )
        assert project_q(q3, binary) == 1


def test_c2_certified_at_planted_cubic():
    qs = two_orbit_base()
    # built without factoring; algebraic_from_poly's factoring agrees the
    # cubic is irreducible
    assert qs == algebraic_from_poly([1, -2, -1, 1], Fraction(3, 2), Fraction(19, 10))
    g = qs.gen()
    # the defining cubic makes the third step close the two-cycle
    assert g**3 - g**2 - 2 * g + 1 == 0
    assert g - 1 == g / (g**2 - 1)
    r = c2_probe(qs)
    assert r.outcome == C2Outcome.TwoOrbitsCertified
    assert "shift-membership(k=2)" in r.route
    cert = r.certificate
    assert cert.data["digits"] == [2, 2, 0]
    assert cert.data["cycle-start"] == 1
    assert cert.data["cycle-length"] == 2
    assert verify(cert) == []
    assert verify(from_json(to_json(cert))) == []


# at q ~ 1.8265, 1 = 11(0110)^oo: certified by its exact cycle, but not in
# the 2-run-limited shift, and q lies below the 3-bonacci root
LEMMA_FAILS = (1, -1, -1, 1, -2, 1)


def test_c2_route_names_no_lemma_that_fails():
    q = algebraic_from_poly(list(LEMMA_FAILS), Fraction(101, 100), Fraction(199, 100))
    r = c2_probe(q)
    assert r.outcome == C2Outcome.TwoOrbitsCertified
    assert r.route == "periodic-trajectory"
    cert = r.certificate
    assert cert.data["route"] == "periodic-trajectory"
    assert (cert.data["digits"], cert.data["cycle-start"], cert.data["cycle-length"]) == (
        [2, 2, 0, 2, 2, 0], 2, 4,
    )
    assert verify(cert) == []
    assert verify(from_json(to_json(cert))) == []


def _certified_expansion(cert):
    """The binary expansion of 1 spelled by a certificate's 0/2 digits."""
    bits = [d // 2 for d in cert.data["digits"]]
    start, length = cert.data["cycle-start"], cert.data["cycle-length"]
    return tail(bits[:start], bits[start : start + length], Alphabet.BINARY)


@pytest.mark.parametrize(
    "coeffs, k",
    [
        ((1, -2, -1, 1), 2),  # the two-orbit cubic
        ((1, 0, -2, -1, 1), 2),
        ((1, -2, 1, -2, 1), 3),
        ((-1, -1, 1, 0, -2, 1), 4),
        (LEMMA_FAILS, None),
    ],
)
def test_c2_route_label_matches_the_lemma(coeffs, k):
    q = algebraic_from_poly(list(coeffs), Fraction(101, 100), Fraction(199, 100))
    r = c2_probe(q)
    assert r.outcome == C2Outcome.TwoOrbitsCertified
    assert verify(r.certificate) == []
    assert r.certificate.data["route"] == r.route
    m = re.fullmatch(r"periodic-trajectory(?:\+shift-membership\(k=(\d+)\))?", r.route)
    assert m is not None
    assert (None if m[1] is None else int(m[1])) == k
    if k is None:
        return
    expansion = _certified_expansion(r.certificate)
    rel = compare_reals(q, bonacci_root(k))
    if rel == Ordering.Equal:
        assert member(run_limited_strict(k), expansion)
    else:
        assert rel == Ordering.Greater and member(run_limited(k), expansion)
    assert project_q(q, expansion) == 1


def test_shift_lemma_reads_both_families():
    q3 = bonacci_root(3)
    # (0011)^oo holds 100, so not 2-run-limited; at the root itself the
    # strict 3-family holds it, and bars (001)^oo, a shift of (100)^oo
    assert bonacci._shift_certificate_k(q3, tail((), (0, 0, 1, 1))) == 3
    assert bonacci._shift_certificate_k(q3, tail((), (0, 0, 1))) is None
    assert bonacci._shift_certificate_k(q3, tail((), (0, 1))) == 2


def test_shift_lemma_stops_at_the_first_root_above_q(monkeypatch):
    read = []
    orderings = bonacci.bonacci_orderings

    def counted(q):
        for k, rel in orderings(q):
            read.append(k)
            yield k, rel

    monkeypatch.setattr(bonacci, "bonacci_orderings", counted)
    # 1999/1000 lies between the 9- and 10-bonacci roots
    q = AlgebraicNumber.from_rational(Fraction(1999, 1000))
    assert bonacci._shift_certificate_k(q, tail((), (0,) * 20 + (1,))) is None
    assert read == list(range(2, 11))


@pytest.mark.parametrize("num,den", [(9, 5), (19, 10), (199, 100), (1999, 1000)])
def test_c2_rational_never_certifies(num, den):
    r = c2_probe(AlgebraicNumber.from_rational(Fraction(num, den)), depth=60)
    assert r.outcome != C2Outcome.TwoOrbitsCertified
    if r.outcome == C2Outcome.NotTwo:
        assert r.branch_step is not None


def test_c2_rational_unknown_is_honest():
    r = c2_probe(AlgebraicNumber.from_rational(Fraction(199, 100)), depth=60)
    assert r.outcome == C2Outcome.Unknown
    assert r.certificate is None


def test_periodic_expansion_search():
    found = periodic_expansions_of_one(bonacci_root(2), 4)
    assert [(w.symbols, ok) for w, ok in found] == [((1, 0), True)]
    found3 = periodic_expansions_of_one(bonacci_root(3), 4)
    assert [(w.symbols, ok) for w, ok in found3] == [((1, 1, 0), True)]
    assert periodic_expansions_of_one(two_orbit_base(), 5) == []


@pytest.mark.parametrize("k", range(2, 13))
def test_base_identity_links_deficit_to_power(k):
    g = bonacci_root(k).gen()
    assert sum(g**i for i in range(k)) == g**k
    assert 2 - g == g**-k


def test_odd_cardinality_depth_too_shallow():
    with pytest.raises(CertificationFailed):
        verify_odd_cardinality(3, 3, depth=4)
    # seven paths at depth 8, but not yet seven separated cylinders: the
    # slice reads AtLeastN(4), so the count is not certified
    with pytest.raises(CertificationFailed, match="AtLeastN"):
        verify_odd_cardinality(3, 3, depth=8)
