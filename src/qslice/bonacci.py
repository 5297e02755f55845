"""Orbit counting at multinacci bases and nearby algebraic points.

At the k-bonacci base the identity 1 = q^-1 + ... + q^-k lets a single
leading digit trade against a block of k, which makes orbit counts fully
controllable: heights realizing any odd count, a height with countably
many expansions, and exact certification of when the reciprocal base has
precisely two.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .algebraic import (
    AlgebraicNumber,
    FieldElement,
    Ordering,
    bonacci_orderings,
    bonacci_root,
)
from .certificates import Certificate, bracket, exact_check
from .dynamics import (
    UniqueOrbitStatus,
    apply_map,
    enumerate_orbits,
    tail_is_orbit,
    ternary_branch_system,
    unique_orbit_check,
)
from .slices import compute_slice, exactly
from .words import (
    Alphabet,
    Tail,
    Word,
    format_word,
    member,
    project_q,
    run_limited,
    run_limited_strict,
    tail,
    uniform_run_limited,
)


class BonacciError(ValueError):
    pass


def abs_diff(a, b):
    d = a - b
    return d if d >= 0 else -d


class DeltaNotInSTilde(BonacciError):
    pass


class CertificationFailed(BonacciError):
    def __init__(self, message: str, depth: int):
        super().__init__(f"{message} (depth {depth})")
        self.depth = depth


def _check_delta(k: int, delta: Tail) -> None:
    """Raise DeltaNotInSTilde, with the reason that applies, unless delta
    lies in the uniformly run-limited shift of run bound k."""
    if k < 3:
        raise DeltaNotInSTilde("the uniformly run-limited shift is empty below k = 3")
    if delta.alphabet != Alphabet.BINARY:
        raise DeltaNotInSTilde("tail must be a binary word")
    if member(uniform_run_limited(k), delta):
        return
    for cycle in uniform_run_limited(k).barred:
        if delta.ends_with_cycle(cycle):
            barred = format_word(tail((), cycle, Alphabet.BINARY))
            raise DeltaNotInSTilde(f"tail must not end in the barred cycle {barred}")
    raise DeltaNotInSTilde(f"tail must avoid both uniform runs of length k = {k}")


def x_m_witness(
    k: int, m: int, delta: Optional[Tail] = None
) -> tuple[AlgebraicNumber, FieldElement, Tail]:
    """The expansion point x whose binary expansion reads: one, m blocks
    of k zeros, then a tail from the uniformly run-limited shift, (01)^oo
    unless delta is given. The slice height is y = x(q-1).

    Each zero block can trade against the identity block of the base, so
    the point carries exactly 2m+1 expansions.
    """
    if m < 0:
        raise BonacciError("block count must be nonnegative")
    if delta is None:
        delta = tail((), (0, 1), Alphabet.BINARY)
    _check_delta(k, delta)
    q = bonacci_root(k)
    t = tail(
        (1,) + (0,) * (k * m) + delta.preperiod, delta.period, Alphabet.BINARY
    )
    return q, project_q(q, t), t


def verify_odd_cardinality(
    k: int, m: int, delta: Optional[Tail] = None, depth: Optional[int] = None
) -> Certificate:
    """Certify that the 2m+1 count is exact: the slice engine must decide
    the witness's height as ExactlyN(2m+1), every orbit eternally unique
    and the cylinders pairwise separated; then the block-trade recursion
    is checked step by step with exact arithmetic."""
    q, x, t = x_m_witness(k, m, delta)
    g = q.gen()
    if depth is None:
        depth = k * (m + 2) + 18
    expected = 2 * m + 1
    y = x * (g - 1)
    # every path has a child, so a walk past 2m+1 paths has already failed
    res = compute_slice(q, y, depth, max_cylinders=expected)
    if res.claim != exactly(expected):
        raise CertificationFailed(
            f"expected {expected} separated certified orbits, the slice reads "
            f"{res.claim.kind.value}({res.claim.n})",
            depth,
        )
    routes = [probe.route for probe in res.leaf_probes]
    sys = ternary_branch_system(q)

    checks = []
    # the leading digit funnels into the previous witness: applying the
    # plain-scaling branch then k-1 unit-subtracting branches lands exactly
    # on the m-1 block point
    prev = x
    for j in range(m, 0, -1):
        cur = prev
        stepped = apply_map(sys, 0, cur)
        for _ in range(k - 1):
            stepped = apply_map(sys, 2, stepped)
        _, prev_val, _ = x_m_witness(k, j - 1, delta)
        checks.append(
            exact_check(f"block-trade-{j}", "le", abs_diff(stepped, prev_val), 0)
        )
        prev = prev_val
    # the trade rests on the base identity: a one against k ones shifted
    ident = 1 - sum((g ** -(i + 1) for i in range(k)), g.base.zero())
    checks.append(exact_check("base-identity", "le", abs_diff(ident, g.base.zero()), 0))

    return Certificate(
        claim="odd-orbit-count",
        hypotheses=(
            "all surviving branches certified eternally unique",
            "orbit tree enumerated exhaustively to the stated depth",
        ),
        level=m,
        depth=depth,
        checks=tuple(checks),
        data={
            "k": k,
            "m": m,
            "count": expected,
            "base": bracket(g),
            "height": bracket(y),
            "leaf-routes": routes,
        },
    )


def null_infinite_probe(k: int, depth: int = 30) -> Certificate:
    """Certify the countably infinite orbit family at the reciprocal base
    point: each pass around the length-k loop offers one exit to the fixed
    point at zero, and the loop itself closes exactly."""
    q = bonacci_root(k)
    g = q.gen()
    sys = ternary_branch_system(q)
    x = 1 / g

    checks = []
    if sys.applicable(x) != [0, 2]:
        raise CertificationFailed("reciprocal point must offer exactly two branches", 0)
    checks.append(exact_check("exit-hits-zero", "le", abs_diff(apply_map(sys, 2, x), 0), 0))
    one = g.base.one()
    checks.append(exact_check("loop-enters-one", "le", abs_diff(apply_map(sys, 0, x), one), 0))
    z = one
    for i in range(k - 1):
        labels = sys.applicable(z)
        if labels != [2]:
            raise CertificationFailed(f"loop step {i} not forced", i)
        z = apply_map(sys, 2, z)
    checks.append(exact_check("loop-returns", "le", abs_diff(z, x), 0))

    found = enumerate_orbits(sys, x, depth).sizes[-1]
    expected = (depth - 1) // k + 2
    if found != expected:
        raise CertificationFailed(
            f"expected {expected} branches at depth {depth}, found {found}",
            depth,
        )
    return Certificate(
        claim="countably-infinite-orbits",
        hypotheses=(
            "every pass of the exact loop forks once",
            "each exit is eternally unique at the fixed point",
        ),
        depth=depth,
        checks=tuple(checks),
        data={
            "k": k,
            "base": bracket(g),
            "loop-digits": [0] + [2] * (k - 1),
            "exit-digit": 2,
            "branches-at-depth": expected,
        },
    )


# ---------------------------------------------------------------------------
# does the reciprocal of the base carry exactly two expansions?
# ---------------------------------------------------------------------------


class C2Outcome(Enum):
    TwoOrbitsCertified = "TwoOrbitsCertified"
    NotTwo = "NotTwo"
    Unknown = "Unknown"


@dataclass(frozen=True)
class C2Report:
    outcome: C2Outcome
    branch_step: Optional[int] = None
    exhibited_pair: Optional[tuple[Tail, Tail]] = None
    certificate: Optional[Certificate] = None
    route: Optional[str] = None


def two_orbit_base() -> AlgebraicNumber:
    """The root of x^3 - x^2 - 2x + 1 between 1 and 2.

    The expansion of 1 there is eventually periodic with the whole
    trajectory outside the overlap region, so the two-orbit property of
    the reciprocal is certifiable."""
    # a reducible cubic has a rational root, and neither 1 nor -1 is one
    return AlgebraicNumber((1, -2, -1, 1), Fraction(3, 2), Fraction(19, 10))


def _exhibit_branch_pair(
    q: AlgebraicNumber, prefix: tuple[int, ...], point, budget: int = 64
) -> Optional[tuple[Tail, Tail]]:
    """At a branch point, try to complete both children into exactly
    verifiable orbits (hitting zero or an exact cycle)."""
    sys = ternary_branch_system(q)
    completions = []
    for label in sys.applicable(point):
        digits = list(prefix) + [label]
        z = apply_map(sys, label, point)
        seen = {z: len(digits)}
        done = None
        for _ in range(budget):
            if z == 0:
                done = tail(digits, (0,), Alphabet.TERNARY)
                break
            labels = sys.applicable(z)
            lab = labels[-1]
            digits.append(lab)
            z = apply_map(sys, lab, z)
            if z in seen:
                cut = seen[z]
                done = tail(digits[:cut], digits[cut:], Alphabet.TERNARY)
                break
            seen[z] = len(digits)
        if done is None:
            return None
        completions.append(done)
    if len(completions) < 2:
        return None
    return completions[0], completions[1]


_SHIFT_CERT_MAX_K = 12


def _shift_certificate_k(q: AlgebraicNumber, expansion: Tail) -> Optional[int]:
    """The smallest k for which the run-limited-shift lemma (Glendinning
    and Sidorov, Math. Res. Lett. 8, 2001) shows the binary expansion has
    no sibling: it lies in the k-run-limited shift and q exceeds the
    k-bonacci root, or equals it and the strict family holds it. The roots
    increase with k, so the search ends at the first root above q."""
    for k, rel in bonacci_orderings(q):
        if k > _SHIFT_CERT_MAX_K or rel == Ordering.Less:
            return None
        if rel == Ordering.Greater and member(run_limited(k), expansion):
            return k
        if rel == Ordering.Equal and member(run_limited_strict(k), expansion):
            return k


def c2_probe(q: AlgebraicNumber, depth: int = 64) -> C2Report:
    """Classify whether the reciprocal of the base has exactly two orbits,
    which happens precisely when 1 has a unique one.

    A branch in the trajectory of 1 refutes it eternally (both children
    extend). Certification needs the trajectory to close into an exact
    cycle outside the overlap region, which a non-integer rational base can
    never do. Where the cycle's digits spell an expansion that the
    run-limited-shift lemma covers, the route label also names the lemma's
    k: "periodic-trajectory+shift-membership(k=K)"."""
    walked = unique_orbit_check(q, 1, depth)
    sys = ternary_branch_system(q)
    if walked.status == UniqueOrbitStatus.BranchFoundAt:
        z = sys.lift(1)
        for lab in walked.digits:
            z = apply_map(sys, lab, z)
        pair = _exhibit_branch_pair(q, walked.digits, z)
        return C2Report(C2Outcome.NotTwo, branch_step=walked.branch_step, exhibited_pair=pair)
    if walked.status != UniqueOrbitStatus.UniqueCertified:
        return C2Report(C2Outcome.Unknown)

    # rebuild the certified walk and freeze its exactness
    checks = []
    z = sys.lift(1)
    points = [z]
    for i, lab in enumerate(walked.digits):
        if z < sys.switch_lo:
            checks.append(exact_check(f"step-{i}-left-of-overlap", "lt", z, sys.switch_lo))
        elif sys.switch_hi < z:
            checks.append(exact_check(f"step-{i}-right-of-overlap", "lt", sys.switch_hi, z))
        else:
            raise CertificationFailed(f"walk entered the overlap at step {i}", i)
        z = apply_map(sys, lab, z)
        points.append(z)
    start, length = walked.cycle_start, walked.cycle_length
    checks.append(
        exact_check("cycle-closes", "le", abs_diff(points[start], points[start + length]), 0)
    )

    route = walked.route
    if all(d in (0, 2) for d in walked.digits):
        # the digits end where the cycle closes: the period is their tail
        bits = [d // 2 for d in walked.digits]
        k = _shift_certificate_k(q, tail(bits[:start], bits[start:], Alphabet.BINARY))
        if k is not None:
            route = f"{route}+shift-membership(k={k})"

    cert = Certificate(
        claim="two-orbit-reciprocal",
        hypotheses=(
            "the trajectory of 1 stays outside the overlap region forever",
            "exactness of the recorded cycle extends the walk eternally",
        ),
        depth=depth,
        checks=tuple(checks),
        data={
            "base": bracket(q.gen()),
            "digits": list(walked.digits),
            "cycle-start": start,
            "cycle-length": length,
            "route": route,
        },
    )
    return C2Report(C2Outcome.TwoOrbitsCertified, certificate=cert, route=route)


def periodic_expansions_of_one(
    q: AlgebraicNumber, max_period: int
) -> list[tuple[Word, bool]]:
    """Purely periodic binary candidates u^inf with value 1, each flagged
    by whether the corresponding orbit is admissible (stays forced)."""
    sys = ternary_branch_system(q)
    out = []
    for p in range(1, max_period + 1):
        for bits in range(2 ** (p - 1), 2**p):
            u = tuple((bits >> (p - 1 - i)) & 1 for i in range(p))
            t = tail((), u, Alphabet.BINARY)
            # tail() cuts u to its primitive root, so a shorter period repeats
            if len(t.period) == p and project_q(q, t) == 1:
                orbit = tail((), tuple(2 * b for b in u), Alphabet.TERNARY)
                out.append((Word(Alphabet.BINARY, u), tail_is_orbit(sys, orbit, 1)))
    return out
