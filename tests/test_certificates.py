from fractions import Fraction as F

import pytest

from qslice.algebraic import AlgebraicNumber, bonacci_root
from qslice.thickness import newhouse_certify
from qslice.certificates import (
    Certificate,
    CertificateError,
    IntervalCheck,
    bracket,
    check,
    exact_check,
    from_json,
    to_json,
    verify,
)


def test_interval_check_relations():
    assert IntervalCheck("a", "lt", ("1/3", "1/2"), ("2/3", "1")).holds()
    assert not IntervalCheck("a", "lt", ("1/3", "2/3"), ("1/2", "1")).holds()
    assert IntervalCheck("a", "le", ("0", "1/2"), ("1/2", "1")).holds()
    assert IntervalCheck("a", "eq", ("1/2", "1/2"), ("1/2", "1/2")).holds()
    assert not IntervalCheck("a", "eq", ("1/2", "1/2"), ("1/2", "2/3")).holds()
    assert not IntervalCheck("a", "ge", ("1", "1"), ("0", "0")).holds()
    # inverted endpoints never validate
    assert not IntervalCheck("a", "lt", ("1", "0"), ("2", "3")).holds()


def test_exact_check_builds_or_raises():
    g = bonacci_root(2).gen()
    c = exact_check("golden-below-two", "lt", g, F(2))
    assert c.holds()
    with pytest.raises(CertificateError):
        exact_check("golden-above-two", "lt", F(2), g)
    # 10^-45 rounds to [0, 10^-40] at first; the retry's grid follows eps
    assert exact_check("tiny", "lt", 0, F(1, 10**45)).rhs == (str(F(1, 10**45)),) * 2


def test_exact_check_refines_its_grid_until_the_brackets_witness():
    # g^-300 is about 10^-63: no cell of 10^-40 or 10^-60 separates it
    # from its double, and a finer grid does
    g = bonacci_root(2).gen()
    c = exact_check("tiny", "lt", g**-300, 2 * g**-300)
    assert c.holds() and F(c.lhs[1]) < F(c.rhs[0]) < F(1, 10**60)
    with pytest.raises(CertificateError, match="^inequality tiny-reversed failed"):
        exact_check("tiny-reversed", "lt", 2 * g**-300, g**-300)
    # equal rationals are witnessed once the grid holds their denominator
    third = F(1, 3**200)
    c = exact_check("equal", "le", third, third)
    assert c.lhs == c.rhs == (str(third),) * 2 and c.holds()
    # an equality of irrational values has no witness on any grid
    for relation in ("le", "eq"):
        with pytest.raises(CertificateError, match="equality of irrational values"):
            exact_check("golden", relation, g, 1 + 1 / g)


def test_newhouse_certificate_verifies_past_the_fixed_grids():
    # at level 200 the aq checks from position 193 compare values near
    # q^-190, which no 10^-60 grid separates: they sit on the 10^-80 grid
    cert = newhouse_certify(AlgebraicNumber.from_rational(F(1999, 1000)), level=200)
    assert verify(cert) == []
    fine = {
        c.label for c in cert.checks
        if max(F(end).denominator for end in c.lhs + c.rhs) > 10**60
    }
    assert "aq-position-193-bridge" in fine


def test_bracket_rounds_outward():
    lo, hi = bracket(F(10**50 + 1, 3 * 10**50))
    assert F(lo) <= F(10**50 + 1, 3 * 10**50) <= F(hi)
    assert F(lo).denominator <= 10**40 and F(hi).denominator <= 10**40
    # small denominators stay exact
    assert bracket(F(1, 3)) == ("1/3", "1/3")


def test_bracket_contains_algebraic_value():
    g = bonacci_root(3).gen()
    lo, hi = bracket(g)
    assert F(lo) < F(hi)
    assert F(hi) - F(lo) < F(1, 10**29)


def test_certificate_is_independent_of_earlier_calls():
    # the first call refines the shared base; the second must not see it
    first = to_json(newhouse_certify(bonacci_root(10), level=12))
    assert to_json(newhouse_certify(bonacci_root(10), level=12)) == first


def test_json_round_trip():
    cert = Certificate(
        claim="demo",
        hypotheses=("first", "second"),
        witness_interval=("1/2", "2/3"),
        level=7,
        depth=12,
        checks=(exact_check("x", "le", F(1, 2), F(1, 2)),),
        data={"note": "payload", "count": 3},
    )
    blob = to_json(cert)
    again = from_json(blob)
    assert again == cert
    assert check(again)
    assert to_json(again) == blob


def test_verify_reports_failures():
    bad = Certificate(
        claim="broken",
        witness_interval=("2/3", "1/2"),
        level=-1,
        checks=(IntervalCheck("t", "lt", ("1", "1"), ("1", "1")),),
    )
    problems = verify(bad)
    assert len(problems) == 3
    assert not check(bad)
