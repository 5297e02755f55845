"""Exact real algebraic numbers and arithmetic in the field they generate.

Every number the library reasons about is either a rational or a real root
of an integer polynomial, pinned down by an isolating interval with rational
endpoints. All decisions (signs, comparisons, domain membership) are made in
exact arithmetic; floating point appears only when a caller asks for a
printable approximation.

Polynomials are integer throughout: root counts and the square-free test
run on integer Sturm chains, factoring runs modulo a prime and its powers
(Zassenhaus's algorithm), intervals are integer numerators over one
denominator, and field elements are integer vectors over one denominator.
Fractions appear only at the edges, where values come in or go out:
`interval`, `coeffs`, `element()`, `to_interval` and `enclose`.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations, count, zip_longest
from math import gcd, isqrt, lcm
from random import Random
from typing import Iterable, Iterator, Sequence, Union

Rational = Union[int, Fraction]


class AlgebraicError(ValueError):
    """Base class for construction and arithmetic failures."""


class NonSquareFree(AlgebraicError):
    """The defining polynomial shares a factor with its derivative."""


class NoRoot(AlgebraicError):
    """The defining polynomial has no root in the given interval."""


class MultipleRoots(AlgebraicError):
    """The given interval contains more than one root."""


class MixedField(AlgebraicError):
    """Arithmetic attempted between elements of different fields."""


class Ordering(Enum):
    Less = "Less"
    Equal = "Equal"
    Greater = "Greater"


# ---------------------------------------------------------------------------
# integer polynomials, coefficients ascending
# ---------------------------------------------------------------------------


def _value_at(p: Sequence[int], n: int, m: int) -> int:
    """The integer m^deg * p(n / m), m > 0, for an integer polynomial p:
    the value at n / m scaled by a power of m, so it has p's sign there."""
    acc, scale = p[-1], 1
    for c in reversed(p[:-1]):
        scale *= m
        acc = acc * n + c * scale
    return acc


def _sign_at(p: Sequence[int], n: int, m: int) -> int:
    """The sign of an integer polynomial at n / m, m > 0."""
    v = _value_at(p, n, m)
    return (v > 0) - (v < 0)


def _trim(a: list[int]) -> list[int]:
    """a with its trailing zeros dropped, in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _content_free(p: list[int]) -> tuple[int, ...]:
    """p with trailing zeros dropped, divided by the gcd of its
    coefficients; the sign is kept."""
    g = gcd(*_trim(p))
    return tuple(p) if g <= 1 else tuple(c // g for c in p)


def _sturm_chain(p: Sequence[int]) -> list[tuple[int, ...]]:
    """The Sturm chain of an integer polynomial of degree >= 1, each member
    a positive multiple of the rational chain's: p, p', then minus the
    remainder of the last two, until a constant or an exact division. So
    the last member is gcd(p, p') up to a scalar. Each remainder is a
    pseudo-remainder: before each step the dividend is multiplied by |lead|
    of the divisor, which keeps it a positive multiple of the true one."""
    chain = [tuple(p), _content_free([c * i for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        lb = b[-1]
        scale, sign = abs(lb), 1 if lb > 0 else -1
        while len(r) >= len(b):
            f, k = sign * r[-1], len(r) - len(b)
            r = [c * scale for c in r]
            for i, c in enumerate(b):
                r[k + i] -= f * c
            r.pop()
            _trim(r)
        if not r:
            break
        chain.append(_content_free([-c for c in r]))
    return chain


def _sign_changes(chain: list[tuple[int, ...]], n: int, m: int) -> int:
    """Sign changes of the chain at n / m, m > 0, zeros skipped."""
    changes, last = 0, 0
    for p in chain:
        s = _sign_at(p, n, m)
        if s:
            changes += s == -last
            last = s
    return changes


def _count_roots(p: Sequence[int], lo: tuple[int, int], hi: tuple[int, int]) -> int:
    """Roots of p in (lo, hi], the ends given as (n, m) for n / m with
    m > 0; callers guarantee p(lo) != 0."""
    chain = _sturm_chain(p)
    return _sign_changes(chain, *lo) - _sign_changes(chain, *hi)


def _primitive(coeffs: Iterable[int]) -> tuple[int, ...]:
    cs = _content_free(list(coeffs))
    return tuple(-c for c in cs) if cs and cs[-1] < 0 else cs


def _irreducible_factors(f: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The irreducible factors of a primitive square-free integer polynomial
    with positive lead, each primitive with positive lead, by Zassenhaus's
    algorithm (J. Number Theory 1, 1969): factor modulo a small prime p,
    lift the factors to p^k, then recombine them by exact trial division."""
    n, p = len(f) - 1, 3
    # the least odd prime that divides no lead and leaves f square-free
    while not (
        f[-1] % p
        and all(p % d for d in range(3, isqrt(p) + 1, 2))
        and len(_gcd_mod([c % p for c in f], _trim([i * c % p for i, c in enumerate(f)][1:]), p)) == 1
    ):
        p += 2
    factors = _factor_mod(f, p)
    if len(factors) == 1:
        return [f]
    # Mignotte: a factor of f, scaled to f's lead, has coefficients of size
    # below bound = lead * 2^n * ||f||_2, and p^k > 2 bound; compared squared
    pk = p
    while pk * pk <= 4 * f[-1] ** 2 * 4**n * sum(c * c for c in f):
        pk *= p
    lifts = _hensel_lift(f, factors, p, pk)
    out, s = [], 1
    while 2 * s <= len(lifts):
        # each product of s lifts times the lead, in the symmetric range
        # mod p^k, is tried; the first to divide is irreducible, since every
        # product of fewer lifts failed
        for subset in combinations(range(len(lifts)), s):
            g = [f[-1]]
            for i in subset:
                g = _mul_mod(g, lifts[i], pk)
            g = _primitive(c - pk if 2 * c > pk else c for c in g)
            quotient = _exact_quotient(f, g)
            if quotient is not None:
                out.append(g)
                f = quotient
                lifts = [u for i, u in enumerate(lifts) if i not in subset]
                break
        else:
            s += 1
    return out + [f]


def _exact_quotient(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...] | None:
    """f / g if g divides f over the integers, else None."""
    # the constant terms first: a cheap test that most non-factors fail
    if f[0] % g[0] if g[0] else f[0]:
        return None
    r, q = list(f), []
    for k in range(len(f) - len(g), -1, -1):
        c, rest = divmod(r[k + len(g) - 1], g[-1])
        if rest:
            return None
        q.append(c)
        for i, gi in enumerate(g):
            r[k + i] -= c * gi
    return None if any(r) else tuple(reversed(q))


def _hensel_lift(f: Sequence[int], factors: list[list[int]], p: int, pk: int) -> list[list[int]]:
    """Monic lifts U_i of the monic factors u_i of f / lead modulo p, with
    f = lead * prod U_i modulo pk, a power of p, lifted one power at a time.
    With sum a_i prod_{j != i} u_j = 1 modulo p (partial fractions), the
    error e at q = p^j is cancelled by adding q (a_i e mod u_i) to each U_i."""
    inv = pow(f[-1], -1, pk)
    monic = [c * inv % pk for c in f]
    cofactors = [
        _inverse_mod(_divmod_mod([c % p for c in monic], u, p)[0], u, p) for u in factors
    ]
    lifts, q = [list(u) for u in factors], p
    while q < pk:
        product = [1]
        for u in lifts:
            product = _mul_mod(product, u, q * p)
        # monic minus product is 0 mod q, and of degree below n
        e = _trim([(a - b) % (q * p) // q for a, b in zip(monic, product)])
        for u, a, lift in zip(factors, cofactors, lifts):
            for i, c in enumerate(_divmod_mod(_mul_mod(a, e, p), u, p)[1]):
                lift[i] += q * c
        q *= p
    return lifts


# polynomials modulo a prime p (or, for _mul_mod, any modulus m):
# coefficient lists in [0, p), no trailing zeros


def _mul_mod(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim([c % m for c in out])


def _sub_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _divmod_mod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b, b nonzero."""
    inv, r, q = pow(b[-1], -1, p), list(a), []
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] * inv % p
        q.append(c)
        for i, bi in enumerate(b):
            r[k + i] = (r[k + i] - c * bi) % p
    return _trim(q[::-1]), _trim(r[: len(b) - 1])


def _gcd_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """The monic gcd of a and b, a nonzero."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _inverse_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """s with s a = 1 modulo m, for a prime to m, by the extended Euclidean
    algorithm: each remainder r is kept with an s such that r = s a
    modulo m, until r is a constant."""
    r0, r1, s0, s1 = list(m), _divmod_mod(a, m, p)[1], [], [1]
    while len(r1) > 1:
        quotient, r = _divmod_mod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub_mod(s0, _mul_mod(quotient, s1, p), p)
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


def _pow_mod(a: list[int], e: int, m: Sequence[int], p: int) -> list[int]:
    """a^e modulo m, by squaring."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, a, p), m, p)[1]
        a, e = _divmod_mod(_mul_mod(a, a, p), m, p)[1], e >> 1
    return out


def _factor_mod(f: Sequence[int], p: int) -> list[list[int]]:
    """The monic irreducible factors of f / lead modulo p, for f square-free
    modulo p. Distinct-degree splitting takes out the product of the factors
    of each degree d as gcd(g, x^(p^d) - x); equal-degree splitting
    (Cantor and Zassenhaus, Math. Comp. 36, 1981) splits it with random
    elements from a generator seeded by p, so every run draws the same."""
    inv, rng = pow(f[-1], -1, p), Random(p)
    g, h, d, out = [c * inv % p for c in f], [0, 1], 0, []
    # g is irreducible once it has no room for two factors of degree > d
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, p, g, p)
        u = _gcd_mod(g, _sub_mod(h, [0, 1], p), p)
        if len(u) > 1:
            out += _split_equal(u, d, p, rng)
            g = _divmod_mod(g, u, p)[0]
            h = _divmod_mod(h, g, p)[1]
    return out + [g] if len(g) > 1 else out


def _split_equal(u: list[int], d: int, p: int, rng: Random) -> list[list[int]]:
    """The monic factors of u, a product of irreducibles of degree d: for a
    random a, gcd(u, a^((p^d - 1) / 2) - 1) is a proper factor about half
    the time."""
    if len(u) - 1 == d:
        return [u]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(u) - 1)])
        w = _gcd_mod(u, _sub_mod(_pow_mod(a, (p**d - 1) // 2, u, p), [1], p), p)
        if 1 < len(w) < len(u):
            v = _divmod_mod(u, w, p)[0]
            return _split_equal(w, d, p, rng) + _split_equal(v, d, p, rng)


# ---------------------------------------------------------------------------
# algebraic numbers
# ---------------------------------------------------------------------------


class AlgebraicNumber:
    """A real algebraic number: irreducible integer polynomial + isolating
    interval. The interval only ever narrows, so sharing instances between
    computations is safe."""

    # _ends: the interval as integer numerators over one denominator,
    # ([lo, hi], den), in lowest terms.
    # _brackets: power_brackets' tables, by bits, computed once per object.
    # _branch_system: the ternary branch system at this base, built once on
    # first use by dynamics.ternary_branch_system
    # Both are kept on the object, never keyed by value: an equal base
    # built separately computes its own.
    __slots__ = ("min_poly", "_ends", "_red_table", "_brackets", "_branch_system")

    def __init__(self, min_poly: tuple[int, ...], lo: Fraction, hi: Fraction):
        self.min_poly = min_poly
        self._ends = _common_denominator((lo, hi))
        self._red_table = None
        self._brackets = {}
        self._branch_system = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rational(r: Rational) -> "AlgebraicNumber":
        r = Fraction(r)
        return AlgebraicNumber((-r.numerator, r.denominator), r, r)

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise AlgebraicError("not a rational number")
        return Fraction(-self.min_poly[0], self.min_poly[1])

    # -- interval management -----------------------------------------------

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        (lo, hi), den = self._ends
        return Fraction(lo, den), Fraction(hi, den)

    def _bisect(self, times: int = 1) -> None:
        """Halve the interval `times` times, or until a midpoint is a root.
        The ends are held as integer numerators over one denominator, and
        min_poly keeps its sign at lo through every halving, so that sign
        is read once."""
        (lo, hi), den = self._ends
        if lo == hi:
            return
        poly = self.min_poly
        lo_positive = _value_at(poly, lo, den) > 0
        for _ in range(times):
            mid, den = lo + hi, 2 * den
            v = _value_at(poly, mid, den)
            if v == 0:
                # only reachable for degree-1 polynomials
                lo = hi = mid
                break
            if lo_positive != (v > 0):
                lo, hi = 2 * lo, mid
            else:
                lo, hi = mid, 2 * hi
        g = gcd(lo, hi, den)
        self._ends = [lo // g, hi // g], den // g

    def refine_to(self, eps: Rational) -> tuple[Fraction, Fraction]:
        """Narrow the interval to a width of at most eps and return it.

        The result is the interval that the least number of halvings
        reaching eps gives, but it is found by quadratic interval
        refinement (J. Abbott, ISSAC 2006): a jump of k halvings at once,
        to the one of the 2^k equal parts of the interval that holds the
        root, costs two evaluations of min_poly where halving costs k. The
        part is guessed from the secant through the exact values at the
        ends and accepted when min_poly changes sign across it; then k
        doubles. A wrong guess costs one halving, and k halves. An
        irrational number is never a grid point, so the part that holds it
        is the one halving reaches, and the last jump is cut to the
        halvings left: the interval is the one `_bisect` gives. A base of
        degree 1 halves, since its root may be a midpoint."""
        eps = Fraction(eps)
        (lo, hi), den = self._ends
        # width = (hi - lo) / den, compared with eps on integers
        width, bound = (hi - lo) * eps.denominator, eps.numerator * den
        if width > bound:
            if eps <= 0:
                raise ValueError("eps must be positive")
            # each halving halves the width, so the least count k with
            # width / 2^k <= eps is the bit length of ceil(width / eps) - 1
            halvings = (-(-width // bound) - 1).bit_length()
            if self.degree < 2:
                self._bisect(halvings)
            else:
                self._jump(halvings)
        return self.interval

    def _jump(self, halvings: int) -> None:
        """The interval after `halvings` halvings, by quadratic interval
        refinement (see refine_to); degree >= 2, so min_poly is nonzero at
        every rational point. vlo and vhi are min_poly's scaled values at
        the ends, over the current den: at den * 2^k, a kept end's value
        is 2^(d k) times its old one."""
        (lo, hi), den = self._ends
        poly, d = self.min_poly, self.degree
        vlo, vhi = _value_at(poly, lo, den), _value_at(poly, hi, den)
        k = 2
        while halvings > 0:
            k = min(k, halvings)
            parts = 1 << k
            # the secant's root lies in part i: vlo and vhi have opposite
            # signs, so vlo / (vlo - vhi) is in (0, 1) and 0 <= i < parts
            i = parts * vlo // (vlo - vhi)
            step, sub = hi - lo, den << k
            a = lo * parts + i * step
            va = vlo << (d * k) if i == 0 else _value_at(poly, a, sub)
            vb = vhi << (d * k) if i == parts - 1 else _value_at(poly, a + step, sub)
            if (va > 0) != (vb > 0):
                lo, hi, den, vlo, vhi = a, a + step, sub, va, vb
                halvings -= k
                k *= 2
                continue
            mid, den = lo + hi, 2 * den
            vmid = _value_at(poly, mid, den)
            if (vmid > 0) == (vlo > 0):
                lo, hi, vlo, vhi = mid, 2 * hi, vmid, vhi << d
            else:
                lo, hi, vlo, vhi = 2 * lo, mid, vlo << d, vmid
            halvings -= 1
            k = max(k // 2, 1)
        g = gcd(lo, hi, den)
        self._ends = [lo // g, hi // g], den // g

    def compare_rational(self, r: Rational) -> Ordering:
        """Exact trichotomy with a rational, with no halving. An irrational
        number lies strictly inside its interval [lo, hi], and its minimal
        polynomial, irreducible of degree >= 2, has no rational root, so for
        lo < r < hi the number is below r exactly when min_poly changes
        sign between lo and r."""
        r = Fraction(r)
        if self.is_rational:
            v = self.rational_value
            return Ordering.Less if v < r else Ordering.Greater if v > r else Ordering.Equal
        (lo, hi), den = self._ends
        n, m = r.numerator, r.denominator
        if n * den <= lo * m:
            return Ordering.Greater
        if n * den >= hi * m:
            return Ordering.Less
        same = _sign_at(self.min_poly, n, m) == _sign_at(self.min_poly, lo, den)
        return Ordering.Greater if same else Ordering.Less

    def sign_of(self, nums: Sequence[int]) -> int:
        """The sign of nums[0] + nums[1] q + ... + nums[d-1] q^(d-1), for
        integers nums: interval Horner over the integer ends of the
        interval, halving it until the enclosure excludes 0. With no
        coefficient past the constant, the constant's sign; otherwise the
        value is irrational, so the loop ends."""
        if not any(nums[1:]):
            c = nums[0]
            return (c > 0) - (c < 0)
        while True:
            vlo, vhi, _ = _interval_eval(nums, *self._ends)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            self._bisect()

    def power_brackets(self, bits: int) -> tuple[tuple[int, ...], int]:
        """Integers a_j and w with 2^bits q^j in [a_j, a_j + w] for
        j = 0..d-1, from integer powers of the ends of the interval refined
        to a width of 2^-(bits + 2d).

        The table is computed once per object and bits, and kept: a
        bracket of q^j holds however far the interval narrows later. It is
        kept on this object only, so an equal base built separately
        refines its own interval and computes its own table."""
        table = self._brackets.get(bits)
        if table is not None:
            return table
        d = self.degree
        self.refine_to(Fraction(1, 1 << (bits + 2 * d)))
        (lo, hi), den = self._ends
        lows, width = [], 0
        lo_j = hi_j = den_j = 1
        for j in range(d):
            least, most = (lo_j, hi_j) if lo_j <= hi_j else (hi_j, lo_j)
            if lo < 0 < hi and j % 2 == 0:
                least = 0
            low = (least << bits) // den_j
            lows.append(low)
            width = max(width, -(-(most << bits) // den_j) - low)
            lo_j, hi_j, den_j = lo_j * lo, hi_j * hi, den_j * den
        table = self._brackets[bits] = tuple(lows), width
        return table

    def __float__(self) -> float:
        lo, hi = enclose(self, 10**20)
        return float((lo + hi) / 2)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        if self.min_poly != other.min_poly:
            return False
        if self.is_rational:
            return True
        (alo, ahi), aden = self._ends
        (blo, bhi), bden = other._ends
        lo = (alo, aden) if alo * bden <= blo * aden else (blo, bden)
        hi = (ahi, aden) if ahi * bden >= bhi * aden else (bhi, bden)
        # hull of two isolating intervals holds exactly one root iff same root
        return _count_roots(self.min_poly, lo, hi) == 1

    def __hash__(self) -> int:
        return hash(self.min_poly)

    def __repr__(self) -> str:
        return f"AlgebraicNumber({self.min_poly}, ~{float(self):.6f})"

    # -- field scaffolding ---------------------------------------------------

    def _reduction_table(self) -> tuple[list[tuple[int, ...]], int]:
        """Integer rows and one denominator: x^(d+j) mod min_poly is
        rows[j] / den for j = 0..d-2."""
        if self._red_table is None:
            d, lead = self.degree, self.min_poly[-1]
            # x^d = base / lead, and row j needs only lead^(j+1) of den, so
            # the overflow of every row but the last is divisible by lead
            base = tuple(-c for c in self.min_poly[:-1])
            rows = [tuple(c * lead ** (d - 2) for c in base)]
            for _ in range(d - 2):
                overflow = rows[-1][-1] // lead
                rows.append(tuple(s + overflow * b for s, b in zip((0,) + rows[-1][:-1], base)))
            self._red_table = rows, lead ** (d - 1)
        return self._red_table

    def element(self, coeffs: Sequence[Rational]) -> "FieldElement":
        d = self.degree
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > d:
            raise AlgebraicError("coefficient vector longer than field degree")
        nums, den = _common_denominator(cs + [0] * (d - len(cs)))
        return FieldElement(self, nums, den)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.degree)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.degree - 1))

    def rational(self, r: Rational) -> "FieldElement":
        r = Fraction(r)
        return FieldElement(self, (r.numerator,) + (0,) * (self.degree - 1), r.denominator)

    def gen(self) -> "FieldElement":
        """The number itself, as an element of its own field."""
        if self.is_rational:
            return self.rational(self.rational_value)
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2))


def algebraic_from_poly(
    coeffs: Sequence[int], lo: Rational, hi: Rational
) -> AlgebraicNumber:
    """Isolate the unique root of an integer polynomial in (lo, hi).

    The polynomial must be square-free. Internally the irreducible factor
    owning the root is selected as the stored minimal polynomial, which is
    what makes exact zero tests on field elements sound.
    """
    p = _primitive(_common_denominator([Fraction(c) for c in coeffs])[0])
    if len(p) < 2:
        raise AlgebraicError("polynomial must have degree at least 1")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise AlgebraicError("empty interval")

    # the chain ends in gcd(p, p') up to a scalar
    g = _sturm_chain(p)[-1]
    if len(g) > 1:
        raise NonSquareFree(f"gcd with derivative has degree {len(g) - 1}")

    total = 0
    owner: tuple[int, ...] | None = None
    owner_root: Fraction | None = None
    for fac in _irreducible_factors(p):
        if len(fac) == 2:
            r = Fraction(-fac[0], fac[1])
            if lo < r < hi:
                total += 1
                owner, owner_root = fac, r
        else:
            # irreducible of degree >= 2 cannot vanish at rational endpoints
            n = _count_roots(fac, (lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
            if n:
                total += n
                owner, owner_root = fac, None
    if total == 0:
        raise NoRoot(f"no root in ({lo}, {hi})")
    if total > 1:
        raise MultipleRoots(f"{total} roots in ({lo}, {hi})")

    assert owner is not None
    if owner_root is not None:
        return AlgebraicNumber.from_rational(owner_root)
    return AlgebraicNumber(owner, lo, hi)


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------


class FieldElement:
    """An element of Q(q): integer numerators over one denominator in the
    basis 1, q, ..., q^(d-1), reduced modulo the minimal polynomial of q.
    The form is canonical, den > 0 and gcd(den, *nums) = 1, so equal values
    have equal fields. Supports exact ring arithmetic, division, and total
    ordering (sign decided by interval refinement, never by floats)."""

    __slots__ = ("base", "nums", "den")

    def __init__(self, base: AlgebraicNumber, nums: Sequence[int], den: int = 1):
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        self.base = base
        self.nums = tuple(nums) if g == 1 else tuple(c // g for c in nums)
        self.den = den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, for printing and outside readers."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- coercion ------------------------------------------------------------

    def _lift(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.base is self.base or other.base == self.base:
                return other
            raise MixedField("elements belong to different fields")
        if isinstance(other, (int, Fraction)):
            return self.base.rational(other)
        return None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        nums = [a * db + b * da for a, b in zip(self.nums, o.nums)]
        return FieldElement(self.base, nums, da * db)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.base, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        nums = [a * db - b * da for a, b in zip(self.nums, o.nums)]
        return FieldElement(self.base, nums, da * db)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.nums, o.nums
        if len(a) == 1:
            # its own line: the rational path below gives the same element
            # 0.35 us later, about 2% of a thickness verdict at rational q
            return FieldElement(self.base, (a[0] * b[0],), self.den * o.den)
        if not any(a[1:]):
            a, b = b, a
        if not any(b[1:]):
            # a rational factor b[0] / den scales the other's numerators, O(d)
            c = b[0]
            return FieldElement(self.base, [n * c for n in a], self.den * o.den)
        d = len(a)
        # convolve the numerators, reduce by the integer table, and divide
        # by the product of the three denominators at the end
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        rows, tden = self.base._reduction_table()
        out = [c * tden for c in prod[:d]]
        for j in range(d, 2 * d - 1):
            c = prod[j]
            if c:
                for k, r in enumerate(rows[j - d]):
                    out[k] += c * r
        return FieldElement(self.base, out, self.den * o.den * tden)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        nums, den = self.nums, self.den
        if len(nums) == 1:
            return FieldElement(self.base, (den,), nums[0])
        n0, n1 = nums[:2]
        if n1 and not any(nums[2:]):
            # den / (n0 + n1 q) with t = -n0 / n1: synthetic division gives
            # p(x) = (x - t) h(x) + p(t), so the inverse is
            # -den h(q) / (n1 p(t)), and p(t) != 0 as p is irreducible.
            # Scaled by powers of n1 all is integral: h_k n1^(d-1-k) and
            # p(t) n1^d, with d the degree
            poly = self.base.min_poly
            h, scale = [poly[-1]], 1
            for c in reversed(poly[1:-1]):
                scale *= n1
                h.append(c * scale - n0 * h[-1])
            out, power = [], -den
            for c in reversed(h):
                out.append(c * power)
                power *= n1
            return FieldElement(self.base, out, poly[0] * scale * n1 - n0 * h[-1])
        # solve M u = mden e0, with M / mden multiplication by self, by
        # fraction-free elimination (Bareiss): every division is exact, and
        # the last pivot is det M, so det M * u is integral (Cramer)
        rows, mden = multiplication_rows(self)
        d = len(rows)
        rows = [row + [mden if i == 0 else 0] for i, row in enumerate(rows)]
        prev = 1
        for k in range(d):
            # M is invertible when self != 0 and min_poly is irreducible
            pivot = next((r for r in range(k, d) if rows[r][k]), None)
            if pivot is None:
                raise AlgebraicError("element not invertible (modulus not irreducible?)")
            rows[k], rows[pivot] = rows[pivot], rows[k]
            top = rows[k]
            p = top[k]
            for row in rows[k + 1:]:
                f = row[k]
                row[k] = 0
                for j in range(k + 1, d + 1):
                    row[j] = (row[j] * p - f * top[j]) // prev
            prev = p
        out = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            acc = prev * row[d] - sum(row[j] * out[j] for j in range(i + 1, d))
            out[i] = acc // row[i]
        return FieldElement(self.base, out, prev)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.base.one()
        acc = self
        while n:
            if n & 1:
                result = result * acc
            acc = acc * acc
            n >>= 1
        return result

    # -- ordering ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def sign(self) -> int:
        return self.base.sign_of(self.nums)

    def __eq__(self, other):
        try:
            o = self._lift(other)
        except MixedField:
            return False
        if o is None:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __lt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __bool__(self):
        return not self.is_zero()

    # -- output --------------------------------------------------------------

    def to_interval(self, eps: Rational) -> tuple[Fraction, Fraction]:
        """Enclosing interval of width at most eps, exact endpoints."""
        eps = Fraction(eps)
        if self.base.degree == 1:
            v = Fraction(self.nums[0], self.den)
            return v, v
        while True:
            vlo, vhi, scale = _interval_eval(self.nums, *self.base._ends)
            scale *= self.den
            if (vhi - vlo) * eps.denominator <= eps.numerator * scale:
                return Fraction(vlo, scale), Fraction(vhi, scale)
            if eps <= 0:
                # only a rational value has an enclosure of width 0
                raise ValueError("eps must be positive")
            self.base._bisect()

    def as_fraction(self) -> Fraction:
        if self.base.degree != 1:
            raise AlgebraicError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def __float__(self) -> float:
        lo, hi = enclose(self, 10**20)
        return float((lo + hi) / 2)

    def __repr__(self) -> str:
        return f"FieldElement({list(self.coeffs)}, ~{float(self):.9f})"


def _common_denominator(fracs: Sequence[Rational]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator."""
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def multiplication_rows(s: FieldElement) -> tuple[list[list[int]], int]:
    """Multiplication by s in the basis 1, q, ..., q^(d-1): integer rows
    over their least common denominator. Column j + 1 is q times column
    j, by times_q."""
    poly = s.base.min_poly
    cols = [(list(s.nums), s.den)]
    for _ in range(len(poly) - 2):
        cols.append(times_q(poly, *cols[-1]))
    den = lcm(*(d // gcd(d, *col) for col, d in cols))
    return [[col[i] * den // d for col, d in cols] for i in range(len(cols))], den


def times_q(poly: Sequence[int], v: Sequence[int], den: int) -> tuple[list[int], int]:
    """q * (v / den) for an integer vector v in the basis 1, q, ...,
    q^(d-1), where poly is the minimal polynomial of q: v shifted up one
    place and scaled by lead = poly[-1], less v's top coefficient times
    poly, over den * lead. O(d); the vector and denominator are those of
    the product with multiplication_rows(q)."""
    top, lead = v[-1], poly[-1]
    return [lead * a - top * c for a, c in zip((0, *v), poly[:-1])], den * lead


def over_q(poly: Sequence[int], v: Sequence[int], den: int) -> tuple[list[int], int]:
    """(v / den) / q, the inverse step of times_q: v shifted down one place
    and scaled by |p_0|, plus v_0 times the coefficients p_1 .. p_d of poly
    with the sign of -p_0, over den * |p_0|; 1/q = -(p_1 + ... + p_d
    q^(d-1)) / p_0. O(d); the vector and denominator are those of the
    product with multiplication_rows(1 / q)."""
    p0 = poly[0]
    head = v[0] if p0 < 0 else -v[0]
    return [abs(p0) * a + head * c for a, c in zip((*v[1:], 0), poly[1:])], den * abs(p0)


def _interval_eval(nums: Sequence[int], ends: Sequence[int], den: int) -> tuple[int, int, int]:
    """Interval Horner enclosure of the integer polynomial nums over the
    interval [lo, hi] / den, ends = (lo, hi), den > 0, in scaled integers:
    the enclosure is [vlo / scale, vhi / scale] with scale > 0.

    Each step takes the least and greatest of the four endpoint products,
    so the result is exactly the rational interval Horner recurrence."""
    l, h = ends
    vlo = vhi = 0
    power = 1  # den ** steps; after a step, vlo and vhi carry den ** (steps - 1)
    for c in reversed(nums):
        cands = (vlo * l, vlo * h, vhi * l, vhi * h)
        c *= power
        vlo, vhi = min(cands) + c, max(cands) + c
        power *= den
    return vlo, vhi, power // den


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def compare(a: FieldElement, b: FieldElement) -> Ordering:
    """Exact trichotomy for elements of the same field."""
    s = (a - b).sign()
    return Ordering.Less if s < 0 else Ordering.Greater if s > 0 else Ordering.Equal


def compare_reals(a: AlgebraicNumber, b: AlgebraicNumber) -> Ordering:
    """Exact trichotomy across different fields (used when a base must be
    located relative to the family of k-bonacci roots)."""
    if a == b:
        return Ordering.Equal
    while True:
        (alo, ahi), aden = a._ends
        (blo, bhi), bden = b._ends
        if ahi * bden < blo * aden:
            return Ordering.Less
        if bhi * aden < alo * bden:
            return Ordering.Greater
        # distinct numbers: intervals must eventually separate
        a._bisect()
        b._bisect()


def refine(a: "AlgebraicNumber | FieldElement", eps: Rational) -> tuple[Fraction, Fraction]:
    """Narrow to an enclosing interval of width at most eps."""
    if isinstance(a, AlgebraicNumber):
        return a.refine_to(eps)
    return a.to_interval(eps)


def enclose(x: "AlgebraicNumber | FieldElement", grid: int) -> tuple[Fraction, Fraction]:
    """The grid cell that holds x: (x, x) when x is rational, otherwise
    [n / grid, (n + 1) / grid] with n = floor(x * grid).

    The answer is a function of x and grid alone. However far earlier
    comparisons have narrowed the shared base, the same call returns the
    same cell, so printed bounds do not depend on what ran before.

    x is rational exactly when its base has degree 1 or every coefficient
    past the constant is 0: the minimal polynomial is irreducible, so
    1, q, ..., q^(d-1) are linearly independent over the rationals.
    Otherwise x * grid is irrational, hence never an integer, so x lies
    strictly inside its cell. Its interval Horner enclosure narrows as the
    base's interval is halved, so it eventually fits in that cell, and the
    loop ends. The cell test runs on the enclosure's scaled integers."""
    if isinstance(x, AlgebraicNumber):
        x = x.gen()
    if not any(x.nums[1:]):
        v = Fraction(x.nums[0], x.den)
        return v, v
    while True:
        vlo, vhi, scale = _interval_eval(x.nums, *x.base._ends)
        scale *= x.den
        n = vlo * grid // scale
        if vhi * grid <= (n + 1) * scale:
            return Fraction(n, grid), Fraction(n + 1, grid)
        x.base._bisect()


def bonacci_root(k: int) -> AlgebraicNumber:
    """The root in (1, 2) of x^k = x^(k-1) + ... + x + 1.

    k=2 gives the golden ratio; the family increases to 2. Satisfies the
    exact identity 2 - root = root^(-k).
    """
    if k < 2:
        raise AlgebraicError("k must be at least 2")
    if k not in _BONACCI_CACHE:
        # irreducible (A. Brauer, Math. Nachr. 1951), so nothing to factor
        _BONACCI_CACHE[k] = AlgebraicNumber((-1,) * k + (1,), Fraction(1), Fraction(2))
    return _BONACCI_CACHE[k]


_BONACCI_CACHE: dict[int, AlgebraicNumber] = {}


def bonacci_orderings(q: AlgebraicNumber) -> Iterator[tuple[int, Ordering]]:
    """(k, how q lies against bonacci_root(k)) for k = 2, 3, ... in turn.
    Every root lies in (1, 2), so a base outside that interval lies on one
    side of them all. For x > 1, (x - 1)(x^k - x^(k-1) - ... - 1) =
    x^k (x - 2) + 1, so a base 1 < q < 2 exceeds the k-bonacci root exactly
    when q^k (2 - q) < 1, and equals it when the product is 1: one sign in
    q's own field, and one times_q step takes the product from k to k + 1,
    so no root of another field is built or refined."""
    outside = (Ordering.Less if q.compare_rational(1) != Ordering.Greater
               else Ordering.Greater if q.compare_rational(2) != Ordering.Less else None)
    if outside is not None:
        yield from ((k, outside) for k in count(2))
    e = q.gen() ** 2 * (2 - q.gen())
    nums, den = list(e.nums), e.den
    for k in count(2):
        s = q.sign_of([den - nums[0]] + [-c for c in nums[1:]])  # 1 - q^k (2 - q)
        yield k, Ordering.Greater if s > 0 else Ordering.Less if s < 0 else Ordering.Equal
        nums, den = times_q(q.min_poly, nums, den)
