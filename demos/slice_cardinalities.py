"""
Slice cardinalities across heights
==================================

compute_slice enumerates every surviving branch itinerary at a height and
turns the exhausted tree into a cardinality claim. The same heights are
cross-checked against a dynamics-free oracle that only intersects closed
boxes of the vertical IFS with the horizontal line.
"""

from fractions import Fraction

from qslice import (
    AlgebraicNumber,
    bonacci_root,
    compute_slice,
    format_word,
    geometric_slice_oracle,
    slice_matches_oracle,
)

# a base above the golden ratio: most slices are small
q = AlgebraicNumber.from_rational(Fraction(5, 3))
for y in (Fraction(3, 8), Fraction(1, 2), Fraction(0)):
    res = compute_slice(q, y, 24)
    c = res.claim
    print(
        "y =", y, "->", c.kind.name, c.n,
        "cylinders:", [format_word(w) for w in res.cylinders[:4]],
    )

# below the golden ratio slices blow up: the claim reports the observed
# doubling pattern instead of a count
qlow = AlgebraicNumber.from_rational(Fraction(28, 19))
res = compute_slice(qlow, Fraction(1, 2), 24)
print("low base claim:", res.claim.kind.name, "truncated:", res.truncated)

# the box oracle agrees with the dynamics after corner-spelling filtering
q2 = AlgebraicNumber.from_rational(Fraction(7, 4))
y = Fraction(5, 9)
res = compute_slice(q2, y, 10)
boxes = geometric_slice_oracle(q2, y, 10)
print("oracle boxes:", len(boxes), "dynamic words:", len(res.cylinders))
agree = slice_matches_oracle(res, boxes)
print("routes agree:", agree)
if not agree:
    raise SystemExit("the dynamics and the box oracle disagree")

# an algebraic base with an algebraic height works the same way
q3 = bonacci_root(3)
g = q3.gen()
res = compute_slice(q3, (g - 1) / g, 18)
print("tribonacci special height:", res.claim.kind.name, res.claim.n)
