"""
Dimension bounds for a slice
============================

For a height whose orbit forks, a full binary tree of forking
continuations can be grown inside the orbit tree. If every fork is
reachable within M steps, the uniform mass estimate gives the slice
Hausdorff dimension at least ln2/(M ln3). Box counting on the enumerated
tree gives the upper-side sanity check.
"""

from fractions import Fraction

from qslice import (
    AlgebraicNumber,
    affinity_dimension,
    box_dimension_estimate,
    branching_pair_search,
    build_r_tree,
    dimension_lower_bound,
    enumerate_orbits,
    estimate_M,
    ternary_branch_system,
)

q = AlgebraicNumber.from_rational(Fraction(3, 2))

# find a provably forking point to anchor the construction
pair = branching_pair_search(q, Fraction(1, 3))
print("fork after", pair.length, "steps at point", pair.branch_point)
print("the two continuations:", pair.words[0].symbols, pair.words[1].symbols)

# uniform fork-time bound by exact interval splitting
M = estimate_M(q)
print("every orbit forks within M =", M, "steps")
print("mass lower bound: dim >=", round(dimension_lower_bound(M), 4))

# the binary refinement tree realizes the bound constructively
tree = build_r_tree(q, pair.branch_point, 5, m_bound=M)
print("tree leaves:", len(tree.leaves()), "invariant violations:", tree.validate())

# box counting over the same orbit tree
sys = ternary_branch_system(q)
depths = list(range(8, 15))
counts = enumerate_orbits(sys, pair.branch_point, depths[-1]).sizes[depths[0]:]
print("leaf counts:", counts)
slope, _ = box_dimension_estimate(counts, depths)
print("box-count slope:", round(slope, 4))

# the affinity dimension of the full graph, for scale
print("graph affinity dimension:", round(float(affinity_dimension(q)), 4))
