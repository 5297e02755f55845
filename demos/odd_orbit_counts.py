"""
Odd orbit counts at multinacci bases
====================================

At the k-bonacci base, points of the form 1 (0^k)^m delta have exactly
2m+1 expansions when delta is a suitable run-limited tail. The slice
engine verifies the count at the height y = x(q-1): certified
ExactlyN(2m+1), each orbit eternally unique and the cylinders separated.
The certificate replays the exact block-trade recursion behind the count.
"""

from qslice import (
    format_word,
    null_infinite_probe,
    tail,
    verify,
    verify_odd_cardinality,
    x_m_witness,
)

# the witness points themselves
for m in (1, 2, 3):
    q, x, delta = x_m_witness(3, m)
    print("m =", m, " x_m =", x, " tail:", format_word(delta))

# counts 3, 5, 7, 9 at the tribonacci base
for m in (1, 2, 3, 4):
    cert = verify_odd_cardinality(3, m, depth=40)
    print(
        "m =", m, "-> orbits:", cert.data["count"],
        "all leaves certified:", verify(cert) == [],
    )

# a different admissible tail gives the same counts
other = tail([], [0, 0, 1, 1])
cert = verify_odd_cardinality(4, 2, delta=other, depth=44)
print("k=4 with tail (0011)*:", cert.data["count"])

# at x = 1/q_k the tree re-branches forever, once per loop: countably many
# orbits, exactly one new one per level batch
cert = null_infinite_probe(3, depth=30)
print(
    "null-infinite probe: branches at depth 30 =",
    cert.data["branches-at-depth"],
    "loop digits:", cert.data["loop-digits"],
)
