"""Words, canonical tails, run-limited shifts, parsing, projections."""

from fractions import Fraction
from itertools import groupby
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslice.algebraic import AlgebraicNumber, algebraic_from_poly
from qslice.words import (
    _SYMBOL_SETS,
    MAX_WORD_LENGTH,
    Alphabet,
    Word,
    WordSyntaxError,
    avoids,
    format_word,
    lex_consecutive,
    member,
    parse_word,
    project_q,
    project_ternary,
    reflect,
    run_limited,
    run_limited_strict,
    successor,
    tail,
    ternary_code,
    ternary_digits,
    ternary_string,
    uniform_run_limited,
    word,
    word_successor,
)

bits = st.lists(st.integers(0, 1), min_size=0, max_size=8)
bits1 = st.lists(st.integers(0, 1), min_size=1, max_size=6)


# -- canonical form ----------------------------------------------------------


def test_rollback_absorbs_matching_preperiod():
    assert tail([0, 1, 1], [0, 1]) == tail([0, 1], [1, 0])


def test_minimal_period():
    assert tail([], [0, 1, 0, 1]) == tail([], [0, 1])
    assert tail([], [1, 1, 1]).period == (1,)


@settings(max_examples=100, deadline=None)
@given(pre=bits, per=bits1)
def test_canonical_form_is_sequence_invariant(pre, per):
    t = tail(pre, per)
    assert tail(pre + per, per) == t
    assert tail(pre, per * 2) == t
    assert tail(pre + per[:1], per[1:] + per[:1]) == t


def test_ends_with_cycle():
    t = tail([1, 1, 0], [0, 1])
    assert t.ends_with_cycle(word([0, 1]))
    assert t.ends_with_cycle(word([1, 0]))
    assert t.ends_with_cycle(word([0, 1, 0, 1]))
    assert not t.ends_with_cycle(word([0, 1, 1]))


# -- factor avoidance and membership ----------------------------------------


def test_avoids_on_finite_and_infinite_words():
    assert avoids(word([0, 1, 0, 1]), word([1, 1]))
    assert not avoids(word([0, 1, 1, 0]), word([1, 1]))
    assert not avoids(tail([1], [0]), word([1, 0, 0]))
    assert avoids(tail([], [0, 1]), word([1, 1]))


def test_membership_families():
    alternating = tail([], [0, 1])
    assert member(run_limited(2), alternating)
    # the alternating word is exactly the extremal tail barred by the
    # strict family at k=2
    assert not member(run_limited_strict(2), alternating)
    assert member(run_limited_strict(3), alternating)

    blocky = tail([], [0, 0, 1, 0, 1, 1])
    assert member(uniform_run_limited(3), blocky)
    assert not member(uniform_run_limited(2), blocky)

    assert not member(run_limited(3), tail([0], [1]))  # 0111... has 0 1^3
    assert member(run_limited(3), tail([], [1]))  # all-ones is fine


@settings(max_examples=150, deadline=None)
@given(pre=bits, per=bits1, k=st.integers(2, 5))
def test_family_inclusions(pre, per, k):
    t = tail(pre, per)
    if member(uniform_run_limited(k), t):
        assert member(run_limited_strict(k), t)
    if member(run_limited_strict(k), t):
        assert member(run_limited(k), t)


@settings(max_examples=150, deadline=None)
@given(pre=bits, per=bits1, k=st.integers(2, 5))
def test_families_closed_under_reflection(pre, per, k):
    t = tail(pre, per)
    for spec in (run_limited(k), run_limited_strict(k), uniform_run_limited(k)):
        assert member(spec, t) == member(spec, reflect(t))


def _ref_member(family, k, pre, per=None):
    """Membership read off the definitions, on runs: run_limited bars a run
    of k or more after the opposite symbol, that is every run but the
    first; uniform bars every run of k or more; strict and uniform also bar
    each tail that ends in (01^(k-1))^oo or (10^(k-1))^oo. An infinite word
    pre per^oo is read on a prefix long enough to hold each of its finite
    runs whole and an endless run past length k."""
    if per is None:
        prefix = list(pre)
    else:
        n = len(pre) + 3 * len(per) + 2 * k
        prefix = (list(pre) + list(per) * n)[:n]
    runs = [len(list(g)) for _, g in groupby(prefix)]
    if any(r >= k for r in (runs if family == "uniform" else runs[1:])):
        return False
    if per is None or family == "plain":
        return True
    # the periodic part from len(pre) on is some rotation of cycle^oo
    span = lcm(len(per), k)
    for cycle in ((0,) + (1,) * (k - 1), (1,) + (0,) * (k - 1)):
        for r in range(k):
            if all(per[i % len(per)] == cycle[(i + r) % k] for i in range(span)):
                return False
    return True


FAMILIES = {"plain": run_limited, "strict": run_limited_strict, "uniform": uniform_run_limited}


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), k=st.integers(2, 6), pre=bits, per=bits1)
@example("strict", 2, [], [1, 0])  # the extremal tail at k = 2
@example("uniform", 3, [1, 1], [0, 1, 1])  # a barred tail behind a short run
@example("plain", 3, [0], [1])  # an endless run after a switch
@example("plain", 3, [], [1])  # an endless first run
def test_membership_matches_definitions_on_tails(family, k, pre, per):
    assert member(FAMILIES[family](k), tail(pre, per)) == _ref_member(family, k, pre, per)


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    k=st.integers(2, 6),
    symbols=st.lists(st.integers(0, 1), max_size=14),
)
@example("plain", 2, [1, 1, 0])  # a long first run is allowed
@example("uniform", 2, [1, 1, 0])
def test_membership_matches_definitions_on_words(family, k, symbols):
    got = member(FAMILIES[family](k), word(symbols, Alphabet.BINARY))
    assert got == _ref_member(family, k, symbols)


@pytest.mark.parametrize("build", [run_limited, run_limited_strict, uniform_run_limited])
def test_families_need_run_bound_two(build):
    with pytest.raises(WordSyntaxError, match="^run bound must be at least 2, got 1$"):
        build(1)


def test_reflect_alphabets():
    assert reflect(word([0, 1, 2])) == word([2, 1, 0])
    assert reflect(word([-1, 0, 1])) == word([1, 0, -1])
    assert reflect(reflect(tail([1], [0, 1]))) == tail([1], [0, 1])


def test_member_rejects_nonbinary():
    for t in (word([0, 2, 1]), tail([0], [2, 1])):
        with pytest.raises(WordSyntaxError, match="^shift membership is for binary words$"):
            member(run_limited(2), t)
    # the empty word holds no symbol, so its alphabet does not matter
    assert member(run_limited(2), word([], Alphabet.TERNARY))


# -- lexicographic successor --------------------------------------------------


def test_lex_consecutive_examples():
    assert lex_consecutive(word([0, 1, 1]), word([1, 0, 0]))
    assert lex_consecutive(word([1, 0, 1]), word([1, 1, 0]))
    assert not lex_consecutive(word([0, 1, 0]), word([1, 0, 1]))
    assert not lex_consecutive(word([0, 1]), word([0, 1]))


@settings(max_examples=100, deadline=None)
@given(a=bits1, b=bits1)
def test_lex_consecutive_matches_integer_successor(a, b):
    wa, wb = word(a), word(b)
    expected = len(a) == len(b) and int("".join(map(str, b)), 2) == int(
        "".join(map(str, a)), 2
    ) + 1
    assert lex_consecutive(wa, wb) == expected


def test_word_successor():
    assert word_successor(word([0, 2, 2], Alphabet.TERNARY)) == word(
        [1, 0, 0], Alphabet.TERNARY
    )
    assert word_successor(word([2, 2], Alphabet.TERNARY)) is None
    assert word_successor(word([0, 1])) == word([1, 0])


# -- ternary paths as integer codes -----------------------------------------------


def test_ternary_code_examples():
    assert ternary_code(()) == 0 and ternary_digits(0, 0) == () and ternary_string(0, 0) == ""
    # leading zeros are kept by the length, not by the code
    assert ternary_code((0, 0, 1)) == ternary_code((1,)) == 1
    assert ternary_digits(1, 3) == (0, 0, 1) and ternary_digits(1, 1) == (1,)
    assert ternary_digits(0, 7) == (0,) * 7 and ternary_string(5, 13) == "0" * 11 + "12"
    # the all-2s path is the last code of its length: its successor overflows
    top = (2,) * 12
    assert ternary_code(top) == 3**12 - 1 and successor(top, 3) is None
    assert ternary_digits(3**12 - 1, 12) == top
    with pytest.raises(IndexError):
        ternary_digits(3**12, 12)
    with pytest.raises(IndexError):
        ternary_digits(3, 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=40))
@example([])
@example([0] * 6 + [1])
@example([2] * 12)
@example([1] + [0] * 17)
def test_ternary_codes_round_trip(digits):
    path = tuple(digits)
    code = ternary_code(path)
    assert 0 <= code < 3 ** len(path)
    assert ternary_digits(code, len(path)) == path
    assert ternary_string(code, len(path)) == "".join(map(str, path))
    # a code's successor is code + 1, and 3^length where the tuple overflows
    succ = successor(path, 3)
    if succ is None:
        assert code + 1 == 3 ** len(path)
    else:
        assert ternary_code(succ) == code + 1


# -- the Word value --------------------------------------------------------------


def test_words_of_different_alphabets_stay_distinct():
    # a word hashes by its symbols alone, so equal symbols over two
    # alphabets share a hash and must still compare unequal
    binary, ternary = Word(Alphabet.BINARY, (0, 1)), Word(Alphabet.TERNARY, (0, 1))
    assert binary != ternary
    assert len({binary, ternary}) == 2
    assert {binary, ternary} - {Word(Alphabet.TERNARY, (0, 1))} == {binary}


def test_equal_words_hash_equally():
    a, b = Word(Alphabet.TERNARY, (0, 2, 1)), word([0, 2, 1])
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert a[1:] == Word(Alphabet.TERNARY, (2, 1)) and hash(a[1:]) == hash(word([2, 1]))


def test_word_keeps_its_symbol_check_and_has_no_instance_dict():
    # word() checks symbols from outside; the program builds Word directly
    with pytest.raises(WordSyntaxError):
        word((3,), Alphabet.TERNARY)
    with pytest.raises(WordSyntaxError):
        word((0, 2), Alphabet.BINARY)
    assert not hasattr(Word(Alphabet.BINARY, (0, 1)), "__dict__")


def test_symbol_sets_resolve_for_every_alphabet():
    for alphabet in Alphabet:
        assert _SYMBOL_SETS[alphabet] == frozenset(alphabet.symbols)
        assert Alphabet(alphabet.value) is alphabet


# -- syntax --------------------------------------------------------------------


def test_parse_examples():
    assert parse_word("102") == word([1, 0, 2])
    assert parse_word("1(0^3)^2(01)*") == tail([1, 0, 0, 0, 0, 0, 0], [0, 1])
    assert parse_word("10*") == tail([1], [0])
    assert parse_word("(011)^2") == word([0, 1, 1, 0, 1, 1])


@pytest.mark.parametrize(
    "bad",
    # a power of 0, in a group or outside it, would drop its unit silently
    ["1(", "(01", "^3", "(01)*0", "()", "1**", "3", "1(0*)", "1^0", "(10^0)", "(01)^0*"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(WordSyntaxError):
        parse_word(bad)


def test_parse_bounds_the_expanded_length():
    n = MAX_WORD_LENGTH
    assert len(parse_word(f"(0^{n})")) == n
    assert len(parse_word(f"(01)^{n // 2}")) == n
    # a starred unit is part of the word
    assert parse_word(f"(0^{n - 2})(01)^1*").preperiod == (0,) * (n - 2)
    # each over-long power is refused before it is expanded, however large
    for bad in (
        f"(0^{n + 1})", f"(01)^{n // 2 + 1}", f"1(0^{n})", f"1(01)^{n // 2}",
        f"(0^{n // 2})^3", f"(0^{n - 2})(01)^2*", "(01)^99999999999999999999*",
        "(0^99999999999999999999)",
    ):
        with pytest.raises(WordSyntaxError, match=f"^word longer than {n} symbols$"):
            parse_word(bad)


@settings(max_examples=100, deadline=None)
@given(syms=st.lists(st.integers(0, 2), max_size=10))
def test_word_round_trip(syms):
    w = word(syms, Alphabet.TERNARY)
    assert parse_word(format_word(w), Alphabet.TERNARY) == w


@settings(max_examples=100, deadline=None)
@given(pre=bits, per=bits1)
def test_tail_round_trip(pre, per):
    t = tail(pre, per)
    assert parse_word(format_word(t), Alphabet.BINARY) == t


# -- projections ---------------------------------------------------------------


def test_project_ternary_closed_forms():
    assert project_ternary(tail([], [0, 1])) == Fraction(1, 8)
    assert project_ternary(word([1, 0])) == Fraction(1, 3)
    assert project_ternary(tail([1], [0])) == Fraction(1, 3)
    # the two ternary spellings of 1/3 agree in value
    assert project_ternary(tail([0], [2])) == Fraction(1, 3)
    assert project_ternary(tail([], [2])) == Fraction(1)


def test_project_q_closed_forms_rational_base():
    q = AlgebraicNumber.from_rational(Fraction(3, 2))
    assert project_q(q, tail([], [0, 1])).as_fraction() == Fraction(4, 5)
    assert project_q(q, tail([1], [0])).as_fraction() == Fraction(2, 3)
    assert project_q(q, tail([], [1])).as_fraction() == Fraction(2)


def test_project_q_golden_identity():
    # at the golden ratio the alternating word sums exactly to 1
    phi = algebraic_from_poly([-1, -1, 1], 1, 2)
    assert project_q(phi, tail([], [1, 0])) == phi.gen().base.one()


def test_project_q_against_series_oracle():
    import mpmath

    tri = algebraic_from_poly([-1, -1, -1, 1], 1, 2)
    t = tail([1, 0], [0, 1, 1])
    val = project_q(tri, t)
    lo, hi = val.to_interval(Fraction(1, 10**25))
    with mpmath.workdps(40):
        qm = mpmath.findroot(lambda x: x**3 - x**2 - x - 1, 1.8)
        total = mpmath.fsum(
            t.symbol_at(i) * qm ** -(i + 1) for i in range(300)
        )
        approx = Fraction(int(mpmath.floor(total * mpmath.mpf(10) ** 30)), 10**30)
    slack = Fraction(1, 10**20)
    assert lo - slack <= approx <= hi + slack
