"""Portable certificates for exact claims.

A certificate freezes the inequalities a computation relied on as rational
interval comparisons, so an independent party can re-check them with plain
fraction arithmetic and no algebraic machinery. Algebraic quantities enter
only through enclosing rational brackets; a strict comparison between two
brackets is sound whenever the brackets are disjoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from typing import Optional

from .algebraic import FieldElement, enclose


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class IntervalCheck:
    """One recorded comparison between rational brackets."""

    label: str
    relation: str  # "lt", "le" or "eq"
    lhs: tuple[str, str]
    rhs: tuple[str, str]

    def holds(self) -> bool:
        llo, lhi = Fraction(self.lhs[0]), Fraction(self.lhs[1])
        rlo, rhi = Fraction(self.rhs[0]), Fraction(self.rhs[1])
        if llo > lhi or rlo > rhi:
            return False
        if self.relation == "lt":
            return lhi < rlo
        if self.relation == "le":
            return lhi <= rlo
        if self.relation == "eq":
            return llo == lhi == rlo == rhi
        return False


@dataclass(frozen=True)
class Certificate:
    claim: str
    hypotheses: tuple[str, ...] = ()
    witness_interval: Optional[tuple[str, str]] = None
    level: Optional[int] = None
    depth: Optional[int] = None
    checks: tuple[IntervalCheck, ...] = ()
    data: dict = field(default_factory=dict)


def _outward(lo: Fraction, hi: Fraction, grid: int) -> tuple[str, str]:
    if lo.denominator <= grid and hi.denominator <= grid:
        return str(lo), str(hi)
    glo = Fraction(lo.numerator * grid // lo.denominator, grid)
    ghi = Fraction(-((-hi.numerator * grid) // hi.denominator), grid)
    return str(glo), str(ghi)


def bracket(x, eps: Fraction = Fraction(1, 10**40)) -> tuple[str, str]:
    """Rational enclosure of an exact quantity, as strings.

    The grid has denominator 10^40, the default eps, or eps's denominator
    when that is finer. An irrational value gets the grid cell that holds
    it; a rational one is exact, rounded outward onto the grid when its
    denominator is larger, so that certificates stay readable even when
    the exact values carry hundreds of digits."""
    grid = max(10**40, Fraction(eps).denominator)
    if isinstance(x, FieldElement):
        lo, hi = enclose(x, grid)
    else:
        lo = hi = Fraction(x)
    return _outward(lo, hi, grid)


def exact_check(label: str, relation: str, lhs, rhs) -> IntervalCheck:
    """Record a comparison, evaluating both sides to rational brackets.

    The relation is decided exactly first, by the sign of lhs - rhs, and a
    false one raises CertificateError, so a certificate can never be built
    from a failed inequality. The brackets then sit on the grid 10^-40, or
    on the first of 10^-60, 10^-80, ... that witnesses the relation: the
    cells of an irrational side narrow with the grid, and a rational side
    is exact once the grid holds its denominator. Only a "le" or "eq" that
    holds as an equality of irrational values has no witness on any grid;
    it raises too.
    """
    diff = lhs - rhs
    sign = diff.sign() if isinstance(diff, FieldElement) else (diff > 0) - (diff < 0)
    c = IntervalCheck(label, relation, bracket(lhs), bracket(rhs))
    if not {"lt": sign < 0, "le": sign <= 0, "eq": sign == 0}.get(relation, False):
        raise CertificateError(f"inequality {label} failed: {c}")
    if sign == 0 and isinstance(lhs, FieldElement) and any(lhs.nums[1:]):
        raise CertificateError(
            f"inequality {label} holds only as an equality of irrational values,"
            " which no bracket witnesses"
        )
    digits = 40
    while not c.holds():
        digits += 20
        eps = Fraction(1, 10**digits)
        c = IntervalCheck(label, relation, bracket(lhs, eps), bracket(rhs, eps))
    return c


def verify(cert: Certificate) -> list[str]:
    """Re-validate a certificate. Returns a list of failure descriptions,
    empty when everything holds."""
    failures = []
    for c in cert.checks:
        if c.relation not in ("lt", "le", "eq"):
            failures.append(f"{c.label}: unknown relation {c.relation}")
        elif not c.holds():
            failures.append(f"{c.label}: {c.lhs} {c.relation} {c.rhs} fails")
    if cert.witness_interval is not None:
        lo, hi = (Fraction(s) for s in cert.witness_interval)
        if lo > hi:
            failures.append("witness interval is empty")
    for name, bound in (("level", cert.level), ("depth", cert.depth)):
        if bound is not None and bound < 0:
            failures.append(f"{name} is negative")
    return failures


def check(cert: Certificate) -> bool:
    return not verify(cert)


def to_json(cert: Certificate) -> str:
    payload = asdict(cert)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> Certificate:
    raw = json.loads(text)
    checks = tuple(
        IntervalCheck(
            c["label"], c["relation"], tuple(c["lhs"]), tuple(c["rhs"])
        )
        for c in raw.get("checks", ())
    )
    wit = raw.get("witness_interval")
    return Certificate(
        claim=raw["claim"],
        hypotheses=tuple(raw.get("hypotheses", ())),
        witness_interval=tuple(wit) if wit is not None else None,
        level=raw.get("level"),
        depth=raw.get("depth"),
        checks=checks,
        data=raw.get("data", {}),
    )
