"""Generic typed plugin registries (docs/ARCHITECTURE.md).

Every pluggable family in the codebase — bandwidth allocators,
placement policies, arrival processes, system presets, experiments —
is published through a :class:`Registry` instead of an ad-hoc module
dict.  A registry is a small, uniform contract:

* ``register(name, obj, help=...)`` — add an entry (usable as a
  decorator); duplicate names raise :class:`DuplicateKeyError` so two
  plugins cannot silently shadow each other.
* ``get(name)`` — look an entry up; unknown names raise
  :class:`UnknownKeyError`, whose message names the bad key *and* every
  valid choice (a bare ``KeyError: 'eftc'`` helps nobody at a CLI).
* ``names()`` / ``describe()`` — enumerate the registered names
  (sorted) and their one-line help texts, which is how the CLI builds
  its choice lists and help screens without hand-maintained tuples.

Registries preserve **registration order** for iteration (``list(reg)``,
``items()``, ``values()``) because some consumers are order-sensitive
(the P1–P8 policy matrix renders in matrix order), while ``names()`` is
sorted for stable user-facing listings.

:class:`UnknownKeyError` subclasses both :class:`KeyError` and
:class:`ValueError`: lookup sites historically raised one or the other,
and callers that catch either keep working.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class RegistryError(Exception):
    """Base class for registry failures."""


class UnknownKeyError(RegistryError, KeyError, ValueError):
    """Lookup of a name that is not registered.

    ``str()`` is a complete, printable diagnostic (plain ``KeyError``
    would repr-mangle it): the registry kind, the offending name, and
    the sorted valid choices.
    """

    def __init__(self, kind: str, name: object, choices: Tuple[str, ...]) -> None:
        self.kind = kind
        self.name = name
        self.choices = choices
        super().__init__(name)

    def __str__(self) -> str:
        if not self.choices:
            return f"unknown {self.kind} {self.name!r} (no {self.kind}s registered)"
        return (
            f"unknown {self.kind} {self.name!r}; "
            f"choose from: {', '.join(self.choices)}"
        )


class DuplicateKeyError(RegistryError, ValueError):
    """Registration under a name that is already taken."""

    def __init__(self, kind: str, name: str) -> None:
        self.kind = kind
        self.name = name
        super().__init__(f"{kind} {name!r} is already registered")


class Registry(Generic[T]):
    """An ordered name → entry mapping with actionable lookup errors.

    Args:
        kind: what one entry is called in error messages and help
            output (``"scheduler"``, ``"placement"``, ``"experiment"``).

    The mapping surface (``[]``, ``in``, ``len``, iteration, ``items``,
    ``values``) matches a plain dict so existing call sites keep
    working; lookups additionally raise :class:`UnknownKeyError`
    listing the valid names.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}
        self._help: Dict[str, str] = {}

    # -- registration --------------------------------------------------
    def register(
        self,
        name: str,
        obj: Optional[T] = None,
        *,
        help: str = "",
        replace: bool = False,
    ):
        """Register *obj* under *name*; usable as a decorator.

        Direct form::

            ALLOCATORS.register("eftf", EFTFAllocator, help="...")

        Decorator form (registers the decorated object unchanged)::

            @ALLOCATORS.register("eftf", help="...")
            class EFTFAllocator: ...

        Args:
            name: registry key (the user-facing spelling).
            obj: the entry; omit to use as a decorator.
            help: one-line description surfaced by :meth:`describe`.
            replace: allow overwriting an existing entry (tests and
                plugin overrides); default False raises
                :class:`DuplicateKeyError` on collision.

        Returns:
            *obj* (so the decorator form is transparent).
        """
        if obj is None:
            def _decorator(target: T) -> T:
                self.register(name, target, help=help, replace=replace)
                return target

            return _decorator
        if not replace and name in self._entries:
            raise DuplicateKeyError(self.kind, name)
        self._entries[name] = obj
        self._help[name] = help
        return obj

    # -- lookup --------------------------------------------------------
    def get(self, name: str) -> T:
        """Return the entry for *name*.

        Raises:
            UnknownKeyError: naming the bad key and the valid choices.
        """
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownKeyError(self.kind, name, self.names()) from None

    # -- enumeration ---------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        """All registered names, sorted (for stable user-facing lists)."""
        return tuple(sorted(self._entries))

    def describe(self) -> Dict[str, str]:
        """Name → help text, in registration order."""
        return dict(self._help)

    # -- dict-compatible surface ---------------------------------------
    __getitem__ = get

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        """Iterate names in registration order (like a dict)."""
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def values(self) -> List[T]:
        return list(self._entries.values())

    def items(self) -> List[Tuple[str, T]]:
        return list(self._entries.items())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Registry kind={self.kind!r} names={list(self._entries)}>"
