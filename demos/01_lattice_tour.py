#!/usr/bin/env python3
"""
Tour of the simplex lattice
===========================

V_{k,q} is the set of weakly increasing (k-1)-tuples with entries in
[0, q].  Each point v of the scale-(q-1) lattice spawns one hyperedge
F(v): start at v and bump coordinates k-1, k-2, ..., 1 one at a time.
Permuting the bump order gives the facets of the edgewise subdivision,
but only orders consistent with v's ties stay inside the lattice.
"""

from simplexlattice import (
    Params,
    enumerate_facets,
    enumerate_hyperedges,
    enumerate_vertices,
    is_consistent,
    pi_hyperedge,
    vertex_rank,
    vertex_unrank,
)

p = Params(3, 4)

print(f"V_{{3,4}} has {p.num_vertices} points:")
for v in enumerate_vertices(p):
    print(f"  rank {vertex_rank(v, p):2d}: {v}")

# ranks and points convert both ways
assert vertex_unrank(7, p) == enumerate_vertices(p)[7]

print("\nhyperedges of H_{3,4} (one per base point of V_{3,3}):")
for e in enumerate_hyperedges(p):
    print(f"  F({e.base}) = {list(e.vertices)}")

print("\nthe same base under the other bump order:")
e = pi_hyperedge((0, 1), (2, 1), p)
print(f"  F((0,1), (2,1)) = {list(e.vertices)}")

print("\nbase (0,0) has a tie v1=v2, so order (2,1) is out:")
print(f"  is_consistent((2,1), (0,0)) = {is_consistent((2, 1), (0, 0))}")
print(f"  is_consistent((1,2), (0,0)) = {is_consistent((1, 2), (0, 0))}")

small = Params(3, 2)
facets = enumerate_facets(small)
print(f"\nfacets of the q=2 subdivision ({len(facets)} = q^(k-1) = 4):")
for v, pi in facets:
    cell = pi_hyperedge(v, pi, small)
    print(f"  base {v}, order {pi}: {list(cell.vertices)}")

print("\nfacet counts grow like q^(k-1):")
for q in range(1, 7):
    n = len(enumerate_facets(Params(3, q)))
    print(f"  q={q}: {n:3d} facets")
