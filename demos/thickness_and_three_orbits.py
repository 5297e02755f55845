"""
Thickness, linked Cantor sets, and a three-point slice
======================================================

For bases close to 2 the library builds two Cantor sets out of digit
strings, bounds their thickness from their gap laws, and
certifies that they intersect. Refining inside the intersection produces a
height whose slice has exactly three points.
"""

from fractions import Fraction

from qslice import (
    AlgebraicNumber,
    GapFamily,
    bracket,
    enumerate_gaps,
    find_slice3_witness,
    format_word,
    newhouse_certify,
    thickness_lower_bound,
    to_json,
    verify,
)

q = AlgebraicNumber.from_rational(Fraction(1999, 1000))
g = q.gen()

# gap laws of the branching family: one per free position, each standing
# for its translates
aq = enumerate_gaps(q, GapFamily.AqSet, 24)
print("branching-family gap laws to level 24:", len(aq.gaps), "gaps:", aq.gap_count)
tau = thickness_lower_bound(aq)
print("thickness lower bound exceeds q^-5:", tau > g**-5)

# gap laws of the run-limited shift set, one per state of its finite state
# machine, each standing for its scaled copies
sk = enumerate_gaps(q, GapFamily.SkSet, 16)
print("shift-set gap laws to level 16:", len(sk.gaps), "gaps:", sk.gap_count)
tau_s = thickness_lower_bound(sk)
print("shift-set thickness exceeds q^6:", tau_s > g**6)
print("largest shift-set gap below q^-8:", sk.gaps[0].size[0] < g**-8)

# the product of the two bounds beats 1, so the linked pair must intersect
print("thickness product beats 1:", tau * tau_s > 1)

cert = newhouse_certify(q, level=30)
print("certificate checks:", len(cert.checks), "failures:", verify(cert))
print("certificate is plain JSON, first 120 chars:")
print(" ", to_json(cert)[:120], "...")

# locate a height near the intersection: it follows the three designed
# orbits for only about depth + 12 steps, so its slice reads AtLeastN(3)
height, res = find_slice3_witness(q, depth=48)
print("witness height in [%s, %s]" % bracket(height))
print(
    "slice claim:", res.claim.kind.name, res.claim.n,
    "orbit prefixes:", [format_word(w)[:12] + ".." for w in res.cylinders],
)
