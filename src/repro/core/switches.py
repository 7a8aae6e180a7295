"""Switch universes and immutable switch sets.

In the switch cost model (Section 2) the machine consists of a set of
small reconfigurable units — *switches* — ``X = {x_1, …, x_n}``; both
context requirements and hypercontexts are subsets of ``X``.  The cost
of an ordinary reconfiguration under hypercontext ``h`` is ``|h|``: the
state of every *available* switch has to be (re)defined.

:class:`SwitchUniverse` names the switches and fixes their bit
positions; :class:`SwitchSet` is an immutable subset backed by an int
bitmask.  Solver hot loops bypass the wrapper and work on raw masks —
the wrapper exists for the public API, where named switches make
configuration bits of a concrete architecture (e.g. SHyRA) legible.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

from repro.util.bitset import bit_count, bit_indices, mask_of

__all__ = ["SwitchUniverse", "SwitchSet"]


class SwitchUniverse:
    """A finite, named set of reconfigurable units with fixed bit order.

    Parameters
    ----------
    names:
        Unique switch names; the i-th name is assigned bit position i.

    Examples
    --------
    >>> u = SwitchUniverse(["s0", "s1", "s2"])
    >>> u.size
    3
    >>> u.set(["s0", "s2"]).mask
    5
    """

    __slots__ = ("_names", "_index")

    def __init__(self, names: Sequence[str]):
        names = list(names)
        if not names:
            raise ValueError("a switch universe must contain at least one switch")
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if not isinstance(name, str) or not name:
                raise ValueError(f"switch name must be a non-empty string: {name!r}")
            if name in index:
                raise ValueError(f"duplicate switch name: {name!r}")
            index[name] = i
        self._names = tuple(names)
        self._index = index

    @classmethod
    def of_size(cls, n: int, prefix: str = "x") -> "SwitchUniverse":
        """Anonymous universe ``{prefix}0 … {prefix}{n-1}`` (paper's X).

        Universes are immutable and compare by names, so the plain class
        hands out one shared instance per ``(n, prefix)`` from a bounded
        cache instead of rebuilding the names and index on every call
        (request generation and every serve-session ``open`` ask for
        the same few widths over and over).  Subclasses get a fresh
        instance.
        """
        if n <= 0:
            raise ValueError("universe size must be positive")
        if cls is SwitchUniverse:
            return _anonymous_universe(n, prefix)
        return cls([f"{prefix}{i}" for i in range(n)])

    # -- introspection ----------------------------------------------------

    @property
    def size(self) -> int:
        """Number of switches ``|X|``."""
        return len(self._names)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def full_mask(self) -> int:
        """Mask with every switch set (the always-satisfying hypercontext)."""
        return (1 << self.size) - 1

    def index(self, name: str) -> int:
        """Bit position of a named switch; KeyError for unknown names."""
        return self._index[name]

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SwitchUniverse) and self._names == other._names

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        if self.size <= 6:
            return f"SwitchUniverse({list(self._names)!r})"
        return f"SwitchUniverse(<{self.size} switches>)"

    # -- set construction --------------------------------------------------

    def set(self, names: Iterable[str] = ()) -> "SwitchSet":
        """Switch set containing exactly the given named switches."""
        return SwitchSet(self, mask_of(self._index[n] for n in names))

    def from_mask(self, mask: int) -> "SwitchSet":
        """Wrap a raw bitmask; validates it fits the universe."""
        return SwitchSet(self, mask)

    def full_set(self) -> "SwitchSet":
        return SwitchSet(self, self.full_mask)

    def empty_set(self) -> "SwitchSet":
        return SwitchSet(self, 0)

    def names_from_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(self._names[i] for i in bit_indices(mask))


@lru_cache(maxsize=64)
def _anonymous_universe(n: int, prefix: str) -> SwitchUniverse:
    return SwitchUniverse([f"{prefix}{i}" for i in range(n)])


class SwitchSet:
    """Immutable subset of a :class:`SwitchUniverse`.

    Supports the usual set algebra through operators (``| & - ^ <=``)
    and integrates with the cost models through :attr:`mask` and
    ``len()`` (= the switch-model reconfiguration cost ``|h|``).
    """

    __slots__ = ("_universe", "_mask")

    def __init__(self, universe: SwitchUniverse, mask: int):
        if mask < 0 or mask > universe.full_mask:
            raise ValueError(
                f"mask {mask:#x} out of range for universe of size {universe.size}"
            )
        self._universe = universe
        self._mask = mask

    # -- accessors ---------------------------------------------------------

    @property
    def universe(self) -> SwitchUniverse:
        return self._universe

    @property
    def mask(self) -> int:
        """Raw int bitmask (the hot-path representation)."""
        return self._mask

    def __len__(self) -> int:
        return bit_count(self._mask)

    def __iter__(self) -> Iterator[str]:
        return iter(self._universe.names_from_mask(self._mask))

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str) or name not in self._universe:
            return False
        return bool(self._mask >> self._universe.index(name) & 1)

    def __bool__(self) -> bool:
        return self._mask != 0

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "SwitchSet") -> None:
        if self._universe != other._universe:
            raise ValueError("switch sets belong to different universes")

    def __or__(self, other: "SwitchSet") -> "SwitchSet":
        self._check(other)
        return SwitchSet(self._universe, self._mask | other._mask)

    def __and__(self, other: "SwitchSet") -> "SwitchSet":
        self._check(other)
        return SwitchSet(self._universe, self._mask & other._mask)

    def __sub__(self, other: "SwitchSet") -> "SwitchSet":
        self._check(other)
        return SwitchSet(self._universe, self._mask & ~other._mask)

    def __xor__(self, other: "SwitchSet") -> "SwitchSet":
        self._check(other)
        return SwitchSet(self._universe, self._mask ^ other._mask)

    def issubset(self, other: "SwitchSet") -> bool:
        self._check(other)
        return self._mask & ~other._mask == 0

    def __le__(self, other: "SwitchSet") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "SwitchSet") -> bool:
        return self.issubset(other) and self._mask != other._mask

    def satisfies(self, requirement: "SwitchSet") -> bool:
        """Hypercontext-satisfaction: ``requirement ⊆ self`` (paper: x ⊂ h)."""
        return requirement.issubset(self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SwitchSet)
            and self._universe == other._universe
            and self._mask == other._mask
        )

    def __hash__(self) -> int:
        return hash((self._universe, self._mask))

    def __repr__(self) -> str:
        inner = ", ".join(self) if len(self) <= 8 else f"<{len(self)} switches>"
        return f"SwitchSet({{{inner}}})"
