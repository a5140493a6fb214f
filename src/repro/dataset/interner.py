"""String-to-dense-id interning for API names.

An :class:`ApiInterner` assigns every API name in one dimension a
dense integer id in *stable sorted order*: id 0 is the
lexicographically first name.  Sorted order makes ids reproducible
across runs and machines for the same name set, which is what lets the
engine cache persist interned footprints (:mod:`repro.dataset.codec`).

A set of APIs then becomes a single Python ``int`` bitmask (bit *i*
set ⇔ API with id *i* present), and the set algebra every metric runs
on becomes machine-word arithmetic::

    union        a | b
    intersection a & b
    difference   a & ~b
    is-subset    a & ~b == 0
    cardinality  a.bit_count()
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple


def popcount(mask: int) -> int:
    """Number of set bits (= cardinality of the interned set)."""
    return mask.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: byte value -> the positions of its set bits, ascending.  Walking a
#: mask's little-endian bytes through this table visits its bits in
#: the same order :func:`iter_bits` does, one table lookup per
#: non-zero byte instead of one generator step per bit.
BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1)
    for value in range(256))


class ApiInterner:
    """Immutable name ⇄ dense-id mapping for one API dimension."""

    __slots__ = ("_names", "_ids")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names: Tuple[str, ...] = tuple(sorted(set(names)))
        self._ids: Dict[str, int] = {
            name: index for index, name in enumerate(self._names)}

    # --- introspection --------------------------------------------------

    @property
    def names(self) -> Tuple[str, ...]:
        """All interned names, in id (= sorted) order."""
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ApiInterner)
                and self._names == other._names)

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return f"ApiInterner({len(self._names)} names)"

    # --- name <-> id ----------------------------------------------------

    def id_of(self, name: str) -> int:
        return self._ids[name]

    def name_of(self, api_id: int) -> str:
        return self._names[api_id]

    # --- set <-> mask ---------------------------------------------------

    @property
    def universe_mask(self) -> int:
        """Mask with every interned API set."""
        return (1 << len(self._names)) - 1

    def mask_of(self, names: Iterable[str], strict: bool = False) -> int:
        """Bitmask of ``names``.

        Unknown names are ignored by default: a *supported*-API set
        may legitimately name APIs no measured package uses, and those
        can never affect a subset/difference query against interned
        footprints.  ``strict=True`` raises on unknown names instead
        (used when interning footprints, where every name must be in
        the universe by construction).
        """
        mask = 0
        ids = self._ids
        if strict:
            for name in names:
                mask |= 1 << ids[name]
            return mask
        for name in names:
            api_id = ids.get(name)
            if api_id is not None:
                mask |= 1 << api_id
        return mask

    def names_of(self, mask: int) -> List[str]:
        """The names in ``mask``, in id (= sorted) order."""
        names = self._names
        return [names[bit] for bit in iter_bits(mask)]
