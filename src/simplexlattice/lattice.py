"""Integer points of a dilated simplex and the cells of its edgewise subdivision.

Conventions used throughout the package:

* An instance is a pair ``(k, q)``.  Points live in ``Z^(k-1)`` and satisfy
  ``0 <= v_1 <= ... <= v_{k-1} <= q``.  Two virtual coordinates are fixed,
  ``v_0 = 0`` and ``v_k = q``; ``_coordinates`` applies that convention.
* Points and permutations are plain tuples of ints.  A permutation is stored
  in one-line image notation ``(p(1), ..., p(k-1))`` over ``{1, ..., k-1}``.
* Every enumeration is lexicographic.  Nothing about the mathematics forces
  an order, but a fixed order is what makes ranks, reports, and file output
  reproducible byte for byte.

All arithmetic is exact ``int``; all functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from functools import cached_property, lru_cache
from math import comb

Point = tuple[int, ...]
Perm = tuple[int, ...]


class _Record:
    """A record of named fields: ``==`` between instances of one class
    compares the fields in ``_fields`` order, and ``repr`` lists them by
    name.  Mutable records are unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A record whose fields are set once, by ``__init__`` through
    ``object.__setattr__``; it hashes by its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Params(_Frozen):
    """Instance size: ``k`` coordinates/colors and dilation factor ``q``.

    ``q = 0`` is allowed so that the degenerate single-point lattice exists;
    it is what hyperedge base points of a ``q = 1`` instance live in.
    """

    _fields = ("k", "q")

    def __init__(self, k: int, q: int) -> None:
        if type(k) is not int or type(q) is not int:  # exact: bool subclasses int
            raise ValueError(f"k and q must be ints, got {k!r} and {q!r}")
        if k < 3:
            raise ValueError(f"k must be >= 3, got {k}")
        if q < 0:
            raise ValueError(f"q must be >= 0, got {q}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "q", q)

    @property
    def num_vertices(self) -> int:
        return comb(self.q + self.k - 1, self.k - 1)

    def base(self) -> "Params":
        """The lattice holding hyperedge base points (dilation ``q - 1``)."""
        if self.q < 1:
            raise ValueError("base lattice requires q >= 1")
        return Params(self.k, self.q - 1)


def is_lattice_point(v: Point, params: Params) -> bool:
    """True iff ``v`` is a weakly increasing (k-1)-tuple within [0, q]."""
    if len(v) != params.k - 1:
        return False
    prev = 0
    for x in v:
        if type(x) is not int or x < prev:
            return False
        prev = x
    return prev <= params.q


def _coordinates(v: Point, params: Params) -> Point:
    # v_0..v_k of a lattice point, the virtual v_0 = 0 and v_k = q included;
    # the one check of a point that the per-point functions make
    if not is_lattice_point(v, params):
        raise ValueError(f"not a lattice point of the ({params.k},{params.q}) instance: {v!r}")
    return (0, *v, params.q)


def is_permutation(pi: Perm, params: Params | None = None) -> bool:
    """True iff ``pi`` is a bijection on {1, ..., k-1}, or on {1, ..., len(pi)} without
    ``params``, in image notation with exact int entries (``True`` is no image of 1)."""
    m = len(pi) if params is None else params.k - 1
    return len(pi) == m and set(map(type, pi)) <= {int} and sorted(pi) == list(range(1, m + 1))


def _check_permutation(pi: Perm, params: Params | None = None) -> Perm:
    # the image as a tuple, so that a list names, labels and hashes like it
    if not is_permutation(pi, params):
        m = len(pi) if params is None else params.k - 1
        raise ValueError(f"not a permutation image over 1..{m}: {pi!r}")
    return tuple(pi)


def identity_permutation(params: Params) -> Perm:
    return tuple(range(1, params.k))


def _permutations(params: Params) -> list[Perm]:
    """Every permutation image over 1..k-1 in lexicographic order, the order
    of every sweep over all of them (facets, all-pi reports)."""
    return list(itertools.permutations(range(1, params.k)))


def enumerate_vertices(params: Params) -> list[Point]:
    """All lattice points, in lexicographic order.

    The count is ``binomial(q + k - 1, k - 1)``: weakly increasing tuples
    over ``{0, ..., q}`` are combinations with replacement.
    """
    return list(itertools.combinations_with_replacement(range(params.q + 1), params.k - 1))


def _prefix_count(lo: int, x: int, q: int, tail: int) -> int:
    # tuples whose next digit c satisfies lo <= c < x, any tail after it;
    # closed form of sum_{c=lo}^{x-1} comb(q - c + tail, tail)
    return comb(q - lo + tail + 1, tail + 1) - comb(q - x + tail + 1, tail + 1)


def vertex_rank(v: Point, params: Params) -> int:
    """Index of ``v`` in the lexicographic enumeration."""
    padded, m = _coordinates(v, params), params.k - 1
    # each coordinate counts the tuples below it that share the prefix before it
    return sum(_prefix_count(lo, x, params.q, m - 1 - i)
               for i, (lo, x) in enumerate(zip(padded, padded[1:-1])))


def enumerate_facets(params: Params) -> list[tuple[Point, Perm]]:
    """All consistent (base, permutation) pairs.

    Order: lexicographic base, then lexicographic permutation image.  The
    count always comes out to ``q**(k-1)``, which the tests confirm against
    this very enumeration.
    """
    return list(_facets(params))


def _facets(params: Params) -> Iterator[tuple[Point, Perm]]:
    # enumerate_facets' pairs in its order, made one base point at a time from
    # the iterator enumerate_vertices lists; params.base() is checked at the call
    base, perms = params.base(), _permutations(params)
    forbidden = list(map(_inverse_descent_mask, perms))
    bases = itertools.combinations_with_replacement(range(base.q + 1), base.k - 1)
    return ((v, pi) for v, ties in ((v, _tie_mask(v)) for v in bases)
            for pi, mask in zip(perms, forbidden) if not mask & ties)


def _tie_mask(v: Point) -> int:
    # bit i iff v_i = v_{i+1}, i = 1..len(v)-1: a base's tie int in the index, bits 1..k-2
    return sum(1 << i for i in range(1, len(v)) if v[i - 1] == v[i])


def _inverse_descent_mask(pi: Perm) -> int:
    """Bit ``i`` set iff ``i + 1`` precedes ``i`` in ``pi``: exactly the ties
    ``v_i = v_{i+1}`` that make a base point inconsistent with ``pi``."""
    position = {image: pos for pos, image in enumerate(pi)}
    return sum(1 << i for i in range(1, len(pi)) if position[i] > position[i + 1])


class _InstanceIndex(_Frozen):
    """The geometry of one instance that every module reads, built once.

    ``vertices`` is the lexicographic enumeration.  ``_ties`` holds per
    vertex bit ``c - 1`` iff ``v_c = v_{c-1}`` (``v_0 = 0``, ``v_k = q``):
    the colors inadmissible there, bits ``8p..8p+7`` in byte plane ``p``.
    The base points of ``V_{k,q-1}`` are the vertices with bit ``k - 1``
    clear, in lexicographic order.  ``_rank_steps`` keeps each base's tie
    bits as one int, bits ``1..k-2`` its :func:`_tie_mask`; ``pi`` is
    consistent with the bases whose int misses :func:`_inverse_descent_mask`,
    and ``_consistent`` marks them once per such mask.

    Cells come from rank arithmetic, not from a rank map.  With 0-based
    coordinates, whenever ``v + e_j`` is a lattice point,

        rank(v + e_j) - rank(v) = C(q - v_j + k - 3 - j, k - 2 - j),

    which depends on ``v_j`` alone: by Pascal's rule the two terms of
    :func:`vertex_rank` that read ``v_j`` (the one counting below it, and
    the next one counting from it) change by ``C(q - v_j + t, t)`` and
    ``-C(q - v_j + t - 1, t - 1)``, ``t = k - 2 - j``.  A cell steps each
    coordinate exactly once, from its base's value, so the offset of step
    ``j`` is fixed per base; ``_rank_steps`` holds one list of them per
    coordinate over the bases.

    Indexes compare and hash by identity.
    """

    _fields = ("params", "vertices")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, params: Params, vertices: tuple[Point, ...]) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_keeps", {})

    @cached_property
    def _ties(self) -> tuple[bytes, ...]:
        # one C-level comparison per pair of neighbouring coordinate columns;
        # color c's flags shift into bit c - 1 - 8p of plane p = (c - 1) // 8
        k, q, n = self.params.k, self.params.q, len(self.vertices)
        coordinates = [(0,) * n, *zip(*self.vertices), (q,) * n]
        equal = [bytes(map(operator.eq, a, b)) for a, b in zip(coordinates[1:], coordinates)]
        return tuple(sum(int.from_bytes(e, "little") << c for c, e in enumerate(equal[p:p + 8]))
                     .to_bytes(n, "little") for p in range(0, k, 8))

    @cached_property
    def _rank_steps(self) -> tuple[list[int], list[int], list[list[int]]]:
        # base ranks, tie masks as ints and offsets per coordinate; built on
        # first use, so a process that only labels never pays for it
        k, q = self.params.k, self.params.q
        # v_{k-1} < q: color k's bit clear, in the last plane
        below = list(map(operator.not_, map((1 << (k - 1) % 8).__and__, self._ties[-1])))
        ranks = list(itertools.compress(range(len(below)), below))
        ties = list(map(int.from_bytes, itertools.compress(zip(*self._ties), below),
                        itertools.repeat("little")))
        # a base coordinate is below q, so one table of q offsets per
        # coordinate, read through that coordinate's column
        coordinates = list(zip(*map(self.vertices.__getitem__, ranks))) or [()] * (k - 1)
        offsets = [
            list(map([comb(q - x + k - 3 - j, k - 2 - j) for x in range(q)].__getitem__, column))
            for j, column in enumerate(coordinates)
        ]
        return ranks, ties, offsets

    def _chain(self, pi: Perm, keep: bytes | None = None) -> Iterator[list[int]]:
        """Ranks of ``b + e_S`` over the bases (those ``keep`` marks, if given)
        for ``S`` the last ``t`` images of ``pi``, ``t = 0..k-1``, made as
        asked for.  Off the lattice they are still ranks, at most that of
        ``b + e_{1..k-1}``: offsets are positive."""
        ranks, _, offsets = self._rank_steps
        if keep is not None:
            ranks = list(itertools.compress(ranks, keep))
            offsets = [itertools.compress(offset, keep) for offset in offsets]
        yield ranks
        for image in reversed(pi):
            ranks = list(map(operator.add, ranks, offsets[image - 1]))
            yield ranks

    def _consistent(self, pi: Perm) -> bytes:
        # per base 0xFF unless pi orders one of its ties the wrong way; built
        # once per inverse-descent set, the one thing about pi it depends on
        forbidden, keeps = _inverse_descent_mask(pi), self._keeps
        if forbidden not in keeps:
            keeps[forbidden] = bytes([0 if t & forbidden else 0xFF for t in self._rank_steps[1]])
        return keeps[forbidden]

    def cells(self, pi: Perm | None) -> list[tuple[int, ...]]:
        """The cells of ``pi`` (the identity for None) as tuples of vertex
        ranks: the vertices and order of ``reference.pi_hyperedge`` over the
        consistent base points in lexicographic order."""
        params = self.params
        pi = identity_permutation(params) if pi is None else _check_permutation(pi, params)
        return list(zip(*self._chain(pi, self._consistent(pi))))


@lru_cache(maxsize=4)
def _instance_index(params: Params) -> _InstanceIndex:
    # Built on first use and kept for the few instances in use at a time,
    # so that a permutation sweep labels and checks against one index.
    return _InstanceIndex(params, tuple(enumerate_vertices(params)))
