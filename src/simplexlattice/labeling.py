"""The two-colors-per-cell labeling rule and its permutation variants.

For a point ``v`` (with the virtual coordinates ``v_0 = 0``, ``v_k = q``) the
deficiency is ``max{t - v_t : t in [0, k]}``.  The rule colors ``v`` with
``i + 1`` where ``i`` is a deficiency-attaining index whose successor
coordinate is strictly larger; picking which attaining index depends on the
scan order, and that is where the permutation variants differ:

* identity rule: the smallest attaining index;
* permutation rule, "selected-index" reading: scan indices in the order
  ``0, p(1), ..., p(k-1), k`` and return the first attaining index;
* permutation rule, "position" reading: same scan, but return the scan
  position instead of the index found there.

The selected-index reading is the one with the guarantee (its color always
satisfies the admissibility constraint ``v_c > v_{c-1}``).  The position
reading is kept only so the verifier can demonstrate that it breaks
admissibility; see :func:`simplexlattice.reference.compare_pi_readings`.

Whenever ``q >= k`` the rules are total.  For ``q < k`` some points attain
their deficiency only at index ``k``, where no color exists; those raise
:class:`LabelUndefined`.

Which indices attain the deficiency does not depend on the scan order:
:func:`label_all` builds that set once per instance as each vertex's class,
then colors each class by one walk of the scan order.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .lattice import (
    Params,
    Perm,
    Point,
    _check_permutation,
    _Frozen,
    _instance_index,
    vertex_rank,
)

READING_SELECTED = "selected-index"
READING_POSITION = "position"
READINGS = (READING_SELECTED, READING_POSITION)


class LabelUndefined(ValueError):
    """The rule selected index k, one past the last color."""

    def __init__(self, v: Point, params: Params):
        self.vertex = tuple(v)
        super().__init__(
            f"labeling rule is undefined at {self.vertex}: the deficiency is "
            f"attained only at index {params.k} (possible only for q <= k; "
            f"here q={params.q})"
        )


class Labeling(_Frozen):
    """Colors, one per vertex in rank order, as a tuple.  label_all keeps
    ``_classes`` alone (no field) and builds it on first read; the checked
    constructor makes the rest (files, witnesses, user code, copies), whose
    ``_classes`` are their own colors, or None."""

    _fields = ("params", "colors", "rule")

    def __init__(self, params: Params, colors: tuple[int, ...], rule: str) -> None:
        colors = tuple(colors)
        if len(colors) != params.num_vertices:
            raise ValueError(f"expected {params.num_vertices} colors, got {len(colors)}")
        k = params.k
        # exact ints: bool subclasses int, and no writer spells True or 1.0 as a color
        if set(map(type, colors)) != {int} or not 1 <= min(colors) <= max(colors) <= k:
            bad = next(c for c in colors if type(c) is not int or not 1 <= c <= k)
            raise ValueError(f"color {bad!r} outside [1, {k}]")
        if type(rule) is not str:  # the writers spell it as text, the readers want text
            raise ValueError(f"rule must be a str, got {rule!r}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "colors", colors)  # the instance dict wins over the property
        object.__setattr__(self, "rule", rule)

    @classmethod
    def _unchecked(cls, params: Params, rule: str, classes: tuple) -> "Labeling":
        # label_all's classes, whose table holds exact ints in 1..k
        self = object.__new__(cls)
        self.__dict__.update({"params": params, "rule": rule, "_classes": classes})
        return self

    def __reduce__(self) -> tuple:  # a copy is its fields: none of the rule's tables or rows
        return Labeling, (self.params, self.colors, self.rule)

    @cached_property
    def colors(self) -> tuple[int, ...]:
        classes, _, table = self._classes
        return tuple(classes.translate(table))

    @cached_property
    def _classes(self) -> tuple[bytes, dict[int, bytes], bytes] | None:
        return (bytes(self.colors), {}, bytes(range(256))) if self.params.k < 256 else None

    def color_of(self, v: Point) -> int:
        return self.colors[vertex_rank(v, self.params)]


def _check_reading(reading: str) -> None:
    if reading not in READINGS:
        raise ValueError(f"unknown reading {reading!r}; expected one of {READINGS}")


def _pi_descriptor(pi: Perm | None) -> str:
    # "identity", or "pi:" and the image, spelled out even for the identity
    # image: reports and oracle results name the cells they checked by it
    return "identity" if pi is None else "pi:" + ",".join(map(str, pi))


def rule_descriptor(pi: Perm | None, reading: str = READING_SELECTED) -> str:
    """Canonical rule string stored in labelings and files.

    The identity image canonicalizes to "identity": both readings of the
    permutation rule coincide with the plain rule there, so files produced
    under either name are byte-identical.  Any other ``pi`` not an image
    over ``1..len(pi)``, or a reading not in READINGS, is a ValueError.
    """
    _check_reading(reading)
    if pi is None or _check_permutation(pi) == tuple(range(1, len(pi) + 1)):
        return "identity"
    text = _pi_descriptor(pi)
    return text + ":position" if reading == READING_POSITION else text


@lru_cache(maxsize=4)
def _attaining_masks(params: Params) -> tuple[bytes | tuple[int, ...], frozenset[int],
                                               dict[int, bytes]]:
    """Per vertex in rank order its class, the set of classes present, and
    the color scan's class rows by step set (see ``verify._cell_counts``).

    A class has bit ``t - 1`` for each ``t`` in ``[1, k]`` attaining the
    deficiency ``max{t - v_t}``, and is 0 where the deficiency is 0: index
    0 attains it there, and every scan order tries 0 first.  Only the
    tie-break among a class's members depends on the permutation, so every
    rule's labeling is constant on a class, and none is defined on class
    ``1 << k - 1``, index ``k`` alone.  The classes are bytes where they
    fit: at every ``q`` for ``k <= 8``, and for ``q >= k = 9``."""
    k, q = params.k, params.q
    classes = []
    for v in _instance_index(params).vertices:
        top, mask = k - q, 1 << k - 1  # index k (v_k = q) ties like any other
        for t, x in enumerate(v, 1):
            d = t - x
            if d > top:
                top, mask = d, 1 << t - 1
            elif d == top:
                mask |= 1 << t - 1
        classes.append(mask if top > 0 else 0)
    present = frozenset(classes)
    return bytes(classes) if max(present) < 256 else tuple(classes), present, {}


def label_all(params: Params, pi: Perm | None = None,
              reading: str = READING_SELECTED) -> Labeling:
    """Apply a rule to the whole lattice, colors in vertex rank order.

    Total for ``q >= k``; below that, :class:`LabelUndefined` names the
    first vertex whose class is index ``k`` alone.

    Equal pointwise to ``reference.label`` and ``label_pi``, but the classes
    of :func:`_attaining_masks` are worked out once per instance, so only
    the tie-break of the scan order is worked out per rule: one walk of
    the scan order settles each class present at the first index it holds,
    then each vertex looks its class up.  Where the classes fit a byte the
    labeling keeps them, their rows and that table, to look up on the first
    read of its colors; past a byte it keeps the colors looked up as its
    classes, as a labeling of those colors would build them.
    """
    k = params.k
    pi = None if pi is None else _check_permutation(pi, params)
    rule = rule_descriptor(pi, reading)  # refuses an unknown reading before any work
    classes, present, rows = _attaining_masks(params)
    if 1 << k - 1 in present:  # index k alone attains: no color there (see reference.label_pi)
        raise LabelUndefined(_instance_index(params).vertices[classes.index(1 << k - 1)], params)
    table = bytearray(256) if type(classes) is bytes else {}  # color per class
    table[0] = 1  # index 0 is first in every scan order
    pending = [c for c in present if c]
    for t, idx in enumerate(range(1, k) if pi is None else pi, 1):
        # on the identity order t == idx, so both readings agree
        color = (t if reading == READING_POSITION else idx) + 1
        bit, rest = 1 << idx - 1, []
        for c in pending:
            if c & bit:
                table[c] = color
            else:
                rest.append(c)
        pending = rest
    if type(classes) is tuple:  # past a byte: the colors are the classes
        classes, rows, table = bytes(map(table.__getitem__, classes)), {}, range(256)
    return Labeling._unchecked(params, rule, (classes, rows, bytes(table)))
