"""
Penrose forests and the chromatic polynomial
============================================

Fix an ordering of the vertices. Rooting each tree of a spanning forest at
its least vertex gives depths and fathers, and the Penrose closure adds
every graph edge joining two vertices at the same depth, plus the edges one
level apart that point "backwards" in the order. Forests fixed by their own
closure are the Penrose forests, and counting them by size recovers the
chromatic polynomial with alternating signs.

"""

# %%
# Start with a triangle. Under the natural order the star {01, 02} closes
# to the whole triangle (both leaves sit at depth one), while the path
# {01, 12} is already closed.

from chromadisk import (
    VertexOrdering,
    chromatic_via_penrose,
    enumerate_penrose_forests,
    penrose_closure,
    penrose_polynomial,
)
from chromadisk.corpus import complete_graph, cycle_graph

k3 = complete_graph(3)
order = VertexOrdering.natural(3)
print("closure of the star:", sorted(penrose_closure(k3, order, [(0, 1), (0, 2)])))
print("closure of the path:", sorted(penrose_closure(k3, order, [(0, 1), (1, 2)])))

# %%
# Enumerate every Penrose forest of the triangle, grouped by edge count. A
# forest is the frozenset of its edges.

for forest in sorted(enumerate_penrose_forests(k3, order), key=len):
    print(len(forest), sorted(forest))

# %%
# The counts per size are the coefficients of the forest polynomial, and
# sign-alternation turns them into the chromatic polynomial: for K3 that is
# q^3 - 3q^2 + 2q, i.e. counts (1, 3, 2).

print("forest counts:", penrose_polynomial(k3, order).coeffs)
print("chromatic:", chromatic_via_penrose(k3, order).coeffs)

# %%
# The identity holds under any ordering, not just the natural one, even
# though the set of Penrose forests changes. C5 under a shuffled order:

c5 = cycle_graph(5)
shuffled = VertexOrdering.from_order([3, 0, 4, 1, 2])
print("natural :", chromatic_via_penrose(c5, VertexOrdering.natural(5)).coeffs)
print("shuffled:", chromatic_via_penrose(c5, shuffled).coeffs)
