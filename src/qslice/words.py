"""Finite words, eventually periodic infinite words, and run-limited shifts.

Digit strings drive everything here: expansions in a non-integer base are
binary or signed words, slice coordinates are ternary words. Infinite words
are always eventually periodic and kept in a canonical form (minimal period,
preperiod rolled back as far as possible) so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Iterable, Union

from .algebraic import AlgebraicNumber, FieldElement


class WordSyntaxError(ValueError):
    pass


class Alphabet(Enum):
    BINARY = (0, 1)
    TERNARY = (0, 1, 2)
    SIGNED = (-1, 0, 1)

    # members are singletons compared by identity, so they hash by it too
    __hash__ = object.__hash__

    @property
    def symbols(self) -> tuple[int, ...]:
        return self.value


_SYMBOL_SETS = {a: frozenset(a.symbols) for a in Alphabet}


@dataclass(frozen=True, slots=True)
class Word:
    """A finite digit string over a fixed alphabet. Equal words have equal
    symbols, so a word hashes by its symbols alone. The constructor checks
    nothing: word() and parse_word() check symbols that come from outside."""

    alphabet: Alphabet
    symbols: tuple[int, ...]

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.symbols[i])
        return self.symbols[i]

    def __add__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise WordSyntaxError("cannot concatenate across alphabets")
        return Word(self.alphabet, self.symbols + other.symbols)

    def __mul__(self, n: int) -> "Word":
        return Word(self.alphabet, self.symbols * n)

    def __repr__(self) -> str:
        return f"Word({self.alphabet.name}, {''.join(map(str, self.symbols))!r})"


def _checked_alphabet(syms: tuple[int, ...], alphabet: Alphabet | None) -> Alphabet:
    """The alphabet of a word or tail built from outside: the given one, or
    the smallest that could hold syms, once checked to hold them."""
    if alphabet is None:
        if any(s < 0 for s in syms):
            alphabet = Alphabet.SIGNED
        elif any(s > 1 for s in syms):
            alphabet = Alphabet.TERNARY
        else:
            alphabet = Alphabet.BINARY
    if not _SYMBOL_SETS[alphabet].issuperset(syms):
        raise WordSyntaxError(f"symbols outside {alphabet.name} alphabet")
    return alphabet


def word(symbols: Iterable[int], alphabet: Alphabet | None = None) -> Word:
    syms = tuple(int(s) for s in symbols)
    return Word(_checked_alphabet(syms, alphabet), syms)


def _minimal_period(per: tuple[int, ...]) -> tuple[int, ...]:
    n = len(per)
    for p in range(1, n + 1):
        if n % p == 0 and per == per[:p] * (n // p):
            return per[:p]
    return per


@dataclass(frozen=True)
class Tail:
    """An eventually periodic infinite word, canonical form.

    Canonical means: the period is primitive (no shorter repeating block)
    and the preperiod is as short as possible (any symbol at the end of
    the preperiod matching the period's last symbol is absorbed by
    rotating the period).
    """

    alphabet: Alphabet
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def symbol_at(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> Word:
        return Word(self.alphabet, tuple(self.symbol_at(i) for i in range(n)))

    def ends_with_cycle(self, block: Word | tuple[int, ...]) -> bool:
        """True iff the word eventually repeats `block` forever."""
        syms = block.symbols if isinstance(block, Word) else tuple(block)
        u = _minimal_period(syms)
        if len(u) != len(self.period):
            return False
        doubled = self.period + self.period
        return any(doubled[i : i + len(u)] == u for i in range(len(u)))

    def __repr__(self) -> str:
        pre = "".join(map(str, self.preperiod))
        per = "".join(map(str, self.period))
        return f"Tail({self.alphabet.name}, {pre!r}({per!r})*)"


def tail(
    preperiod: Iterable[int], period: Iterable[int], alphabet: Alphabet | None = None
) -> Tail:
    pre = tuple(int(s) for s in preperiod)
    per = tuple(int(s) for s in period)
    if not per:
        raise WordSyntaxError("period must be nonempty")
    alphabet = _checked_alphabet(pre + per, alphabet)
    per = _minimal_period(per)
    while pre and pre[-1] == per[-1]:
        per = per[-1:] + per[:-1]
        pre = pre[:-1]
    return Tail(alphabet, pre, per)


WordLike = Union[Word, Tail]


# ---------------------------------------------------------------------------
# factor avoidance and shift membership
# ---------------------------------------------------------------------------


def avoids(w: WordLike, factor: Word) -> bool:
    """True iff `factor` never occurs as a block of consecutive symbols."""
    f = factor.symbols
    if not f:
        return False
    if isinstance(w, Word):
        window = w.symbols
    else:
        # an occurrence inside the periodic part repeats with the period,
        # so one full period past the preperiod decides everything
        n = len(w.preperiod) + len(w.period) + len(f)
        window = tuple(w.symbol_at(i) for i in range(n))
    return all(window[i : i + len(f)] != f for i in range(len(window) - len(f) + 1))


# the largest run bound k, and k-bonacci index, that the command line takes;
# prefix_run_length looks no further along the k-bonacci roots
MAX_RUN_BOUND = 64

# the longest word a power may expand to in parse_word: a bonacci verify
# tail of 1000 symbols runs 1.7 s at --k 64 --m 1 and 6 s at --k 64 --m 5
# --depth 500, and one of 4000 runs 12 s at --m 1 (2-vCPU host)
MAX_WORD_LENGTH = 1000


@dataclass(frozen=True)
class SubshiftSpec:
    """A binary shift as data: the sequences in which no forbidden factor
    occurs and which do not end by repeating a barred cycle forever. Three
    families are built, each at a run bound k >= 2:
    - run_limited(k) forbids 01^k and 10^k and bars no tail;
    - run_limited_strict(k) forbids 01^k and 10^k and bars the extremal
      tails (01^(k-1))^oo and (10^(k-1))^oo;
    - uniform_run_limited(k) forbids 0^k and 1^k and bars the same tails."""

    forbidden: tuple[Word, ...]
    barred: tuple[Word, ...]


def _with_reflection(symbols: tuple[int, ...]) -> tuple[Word, Word]:
    w = Word(Alphabet.BINARY, symbols)
    return w, reflect(w)


def check_run_bound(k: int) -> int:
    """k, once it is a run bound: every run-limited shift needs k >= 2."""
    if k < 2:
        raise WordSyntaxError(f"run bound must be at least 2, got {k}")
    return k


def run_limited(k: int) -> SubshiftSpec:
    """Forbids 01^k and 10^k, so a run that follows the opposite symbol is
    at most k - 1 long; no tail is barred."""
    check_run_bound(k)
    return SubshiftSpec(_with_reflection((0,) + (1,) * k), ())


def run_limited_strict(k: int) -> SubshiftSpec:
    """Forbids 01^k and 10^k, as run_limited does, and bars the extremal
    tails (01^(k-1))^oo and (10^(k-1))^oo."""
    check_run_bound(k)
    return SubshiftSpec(
        _with_reflection((0,) + (1,) * k), _with_reflection((0,) + (1,) * (k - 1))
    )


def uniform_run_limited(k: int) -> SubshiftSpec:
    """Forbids 0^k and 1^k, so every run is at most k - 1 long, and bars the
    extremal tails (01^(k-1))^oo and (10^(k-1))^oo."""
    check_run_bound(k)
    return SubshiftSpec(
        _with_reflection((0,) * k), _with_reflection((0,) + (1,) * (k - 1))
    )


def member(spec: SubshiftSpec, t: WordLike) -> bool:
    """Membership for infinite words; finite words are tested for
    extendability (factor avoidance alone decides it for these shifts)."""
    if t.alphabet is not Alphabet.BINARY and (isinstance(t, Tail) or len(t) > 0):
        raise WordSyntaxError("shift membership is for binary words")
    return all(avoids(t, f) for f in spec.forbidden) and (
        isinstance(t, Word) or not any(t.ends_with_cycle(c) for c in spec.barred)
    )


def reflect(w: WordLike) -> WordLike:
    """Symbolwise complement: 0<->1 on binary, 0<->2 on ternary, negation
    on signed digits."""
    hi = {Alphabet.BINARY: 1, Alphabet.TERNARY: 2, Alphabet.SIGNED: 0}[w.alphabet]
    flip = lambda s: hi - s
    if isinstance(w, Word):
        return Word(w.alphabet, tuple(flip(s) for s in w.symbols))
    return Tail(
        w.alphabet,
        tuple(flip(s) for s in w.preperiod),
        tuple(flip(s) for s in w.period),
    )


def lex_consecutive(a: Word, b: Word) -> bool:
    """True iff b is the immediate numeric successor of a (equal length):
    a = u 0 1^m and b = u 1 0^m for some (possibly empty) u."""
    if a.alphabet is not Alphabet.BINARY or b.alphabet is not Alphabet.BINARY:
        raise WordSyntaxError("lex_consecutive compares binary words")
    return successor(a.symbols, 2) == b.symbols


def successor(symbols: tuple[int, ...], radix: int) -> tuple[int, ...] | None:
    """Next digit tuple of the same length in numeric order, digits 0 to
    radix - 1; None on overflow."""
    i = len(symbols) - 1
    while i >= 0 and symbols[i] == radix - 1:
        i -= 1
    if i < 0:
        return None
    return symbols[:i] + (symbols[i] + 1,) + (0,) * (len(symbols) - 1 - i)


def word_successor(w: Word) -> Word | None:
    """Next word of the same length in numeric order; None on overflow."""
    if w.alphabet is Alphabet.SIGNED:
        raise WordSyntaxError("successor not defined for signed words")
    succ = successor(w.symbols, len(w.alphabet.symbols))
    return None if succ is None else Word(w.alphabet, succ)


# ---------------------------------------------------------------------------
# ternary paths as integers: a path of known length is coded by its base-3
# value, so a child's code is 3 * code + digit and a successor is code + 1
# ---------------------------------------------------------------------------

# every digit tuple of length k < 7 by its code, and the same as strings
_TUPLES = [tuple(product((0, 1, 2), repeat=k)) for k in range(7)]
_STRINGS = [tuple("".join(map(str, t)) for t in level) for level in _TUPLES]


def ternary_code(digits: Iterable[int]) -> int:
    """The base-3 value of a ternary digit string, most significant first."""
    code = 0
    for d in digits:
        code = 3 * code + d
    return code


def _spell(code: int, length: int, table: list):
    """The length digits of code from table, six per lookup; a code of
    3^length or more raises IndexError."""
    chunks, head = divmod(length, 6)
    out = table[0][0]
    for _ in range(chunks):
        code, low = divmod(code, 729)
        out = table[6][low] + out
    return table[head][code] + out


def ternary_digits(code: int, length: int) -> tuple[int, ...]:
    """The inverse of ternary_code, given the length."""
    return _spell(code, length, _TUPLES)


def ternary_string(code: int, length: int) -> str:
    """The digits of a code as format_word spells them."""
    return _spell(code, length, _STRINGS)


# ---------------------------------------------------------------------------
# projections: digit strings -> numbers
# ---------------------------------------------------------------------------


def _horner(t: WordLike, zero, r):
    """Sum of s_i r^i, i from 1, over the digits of t, for |r| < 1: the
    period's sum over 1 - r^p is the value of the repeating tail."""

    def fold(digits: tuple[int, ...], acc):
        for s in reversed(digits):
            acc = (acc + s) * r
        return acc

    if isinstance(t, Word):
        return fold(t.symbols, zero)
    return fold(t.preperiod, fold(t.period, zero) / (1 - r ** len(t.period)))


def project_ternary(t: WordLike) -> Fraction:
    """Value of a ternary digit string: sum of s_i / 3^i, i from 1."""
    return _horner(t, Fraction(0), Fraction(1, 3))


def project_q(q: AlgebraicNumber | FieldElement, t: WordLike) -> FieldElement:
    """Value of a digit string in base q: sum of s_i q^(-i), exact."""
    g = q.gen() if isinstance(q, AlgebraicNumber) else q
    return _horner(t, g.base.zero(), g.inverse())


# ---------------------------------------------------------------------------
# word syntax: parse / print
# ---------------------------------------------------------------------------


def parse_word(s: str, alphabet: Alphabet | None = None) -> WordLike:
    """Parse compact word syntax: digits, grouping, powers, trailing star.

    Examples: "102", "1(0^3)^2", "1(0^3)^2(01)*", "10*".
    A starred unit (infinite repetition) must end the string and yields a
    Tail; otherwise the result is a finite Word. A power is at least 1, and
    none may make the word longer than MAX_WORD_LENGTH symbols: both are
    checked before the power is expanded.
    """
    pos = 0
    items: list[list[int]] = []
    size = 0  # the symbols in items
    star: list[int] | None = None

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if start == pos:
            raise WordSyntaxError(f"expected integer at position {start} in {s!r}")
        return int(s[start:pos])

    def power(unit: list[int], before: int) -> list[int]:
        """unit to the power read next, in a word with before other symbols."""
        n = read_int()
        if n < 1:
            raise WordSyntaxError("power must be positive")
        if before + len(unit) * n > MAX_WORD_LENGTH:
            raise WordSyntaxError(f"word longer than {MAX_WORD_LENGTH} symbols")
        return unit * n

    while pos < len(s):
        ch = s[pos]
        if ch in "012":
            unit = [int(ch)]
            pos += 1
        elif ch == "(":
            pos += 1
            depth_unit: list[int] = []
            while pos < len(s) and s[pos] != ")":
                c = s[pos]
                if c in "012":
                    depth_unit.append(int(c))
                    pos += 1
                elif c == "^":
                    if not depth_unit:
                        raise WordSyntaxError(f"misplaced ^ in {s!r}")
                    pos += 1
                    head = depth_unit[:-1]
                    depth_unit = head + power(depth_unit[-1:], size + len(head))
                else:
                    raise WordSyntaxError(f"unexpected {c!r} in group in {s!r}")
            if pos >= len(s):
                raise WordSyntaxError(f"unclosed group in {s!r}")
            pos += 1
            unit = depth_unit
            if not unit:
                raise WordSyntaxError(f"empty group in {s!r}")
        else:
            raise WordSyntaxError(f"unexpected {ch!r} in {s!r}")
        if pos < len(s) and s[pos] == "^":
            pos += 1
            unit = power(unit, size)
        if pos < len(s) and s[pos] == "*":
            pos += 1
            if pos != len(s):
                raise WordSyntaxError("starred unit must end the word")
            star = unit
            break
        items.append(unit)
        size += len(unit)

    flat = [x for unit in items for x in unit]
    if star is not None:
        return tail(flat, star, alphabet)
    return word(flat, alphabet)


def format_word(w: WordLike) -> str:
    """Deterministic inverse of parse_word on canonical values."""
    if w.alphabet is Alphabet.SIGNED:
        raise WordSyntaxError("signed words have no compact syntax")
    if isinstance(w, Word):
        return "".join(map(str, w.symbols))
    pre = "".join(map(str, w.preperiod))
    per = "".join(map(str, w.period))
    return f"{pre}({per})*"
