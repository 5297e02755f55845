"""
The branching expansion dynamics
================================

A height y of the unit square corresponds to the point x = y/(q-1) of the
expansion interval [0, 1/(q-1)]. Three affine branches act on that
interval; where their domains overlap the dynamics forks, and each
infinite itinerary is one digit expansion of x.
"""

from fractions import Fraction

from qslice import (
    AlgebraicNumber,
    enumerate_orbits,
    ternary_branch_system,
    unique_orbit_check,
)

q = AlgebraicNumber.from_rational(Fraction(3, 2))
sys = ternary_branch_system(q)

print("expansion interval: [0, %s]" % sys.hull_hi)
print("switch region: [%s, %s]" % (sys.switch_lo, sys.switch_hi))

# which branches apply where
for x in (Fraction(0), Fraction(7, 10), Fraction(1), Fraction(2)):
    print("applicable at", x, "->", sys.applicable(x))

# every branch sequence of a point, exact to depth 8; the branches cover
# the interval and map it into itself, so no sequence ever gets stuck
walk = enumerate_orbits(sys, Fraction(1, 3), 8)
print("orbits at depth 8:", len(walk.paths))
print("orbits at each depth:", walk.sizes)
for path, endpoint in list(zip(walk.paths, walk.points()))[:5]:
    print(" ", "".join(map(str, path)), "->", endpoint)

# a uniqueness probe: does the orbit of x ever fork?
res = unique_orbit_check(q, Fraction(1, 3), 24)
print("probe status:", res.status.name, "first fork at step", res.branch_step)

res0 = unique_orbit_check(q, Fraction(0), 24)
print("orbit of 0:", res0.status.name, "route:", res0.route)
