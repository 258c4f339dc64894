"""Shared registry/knob machinery for string-keyed choices.

Several subsystems expose the same shape of API: a string knob naming
one of a small set of implementations (``engine=`` in ``repro.kdtree``,
``builder=`` in :class:`~repro.kdtree.KdTreeConfig`, the execution
backend in ``repro.serve``, the index families behind
``repro.index.make_index``, scene kinds, sharding strategies).  Before
this module each one hand-rolled its own dict, alias folding, and
unknown-name error, so the messages drifted and aliases could warn more
than once.  :class:`Registry` is the single implementation; every knob
now resolves through it and rejects unknown names with the same
``unknown <kind> '<name>'; available: a, b, c`` message listing the full
set of canonical choices (plus aliases when any exist).
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Generic, Iterator, TypeVar

__all__ = [
    "Registry",
]

T = TypeVar("T")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._\-]*$")


class Registry(Generic[T]):
    """A named mapping from string knob values to implementations.

    ``kind`` is the human-readable noun used in error messages
    ("knn index", "execution backend", "tree builder", ...).  Entries
    are registered under a canonical name plus optional aliases; lookup
    is by either, but :meth:`available` and error messages list only
    canonical names (with an alias summary appended when aliases
    exist), so registration order never changes what callers see.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}
        self._canonical: dict[str, str] = {}
        self._lock = threading.Lock()

    # -- registration ------------------------------------------------

    def add(self, name: str, value: T, *aliases: str) -> T:
        """Register ``value`` under ``name`` (and ``aliases``)."""
        with self._lock:
            for key in (name, *aliases):
                if not _NAME_RE.match(key):
                    raise ValueError(
                        f"invalid {self.kind} name {key!r}; names must match "
                        f"{_NAME_RE.pattern}"
                    )
                if key in self._canonical:
                    raise ValueError(
                        f"duplicate {self.kind} name {key!r} "
                        f"(already registered for "
                        f"{self._canonical[key]!r})"
                    )
            self._entries[name] = value
            for key in (name, *aliases):
                self._canonical[key] = name
        return value

    def register(self, name: str, *aliases: str) -> Callable[[T], T]:
        """Decorator form of :meth:`add`."""

        def deco(value: T) -> T:
            self.add(name, value, *aliases)
            return value

        return deco

    # -- lookup ------------------------------------------------------

    def canonical(self, name: str) -> str:
        """Fold ``name`` (canonical or alias) to its canonical name."""
        try:
            return self._canonical[name]
        except KeyError:
            raise self._unknown(name) from None

    def resolve(self, name: str) -> T:
        """Return the value registered under ``name`` (or an alias)."""
        return self._entries[self.canonical(name)]

    def check(self, name: str) -> str:
        """Validate ``name`` without resolving; returns the canonical
        form so config ``__post_init__`` hooks can both validate and
        fold in one call."""
        return self.canonical(name)

    def available(self) -> tuple[str, ...]:
        """Sorted tuple of canonical names (aliases excluded)."""
        return tuple(sorted(self._entries))

    def aliases(self) -> dict[str, str]:
        """Mapping of alias -> canonical name (canonical keys excluded)."""
        return {
            alias: canon
            for alias, canon in sorted(self._canonical.items())
            if alias != canon
        }

    def __contains__(self, name: object) -> bool:
        return name in self._canonical

    def __iter__(self) -> Iterator[str]:
        return iter(self.available())

    def __len__(self) -> int:
        return len(self._entries)

    # -- errors ------------------------------------------------------

    def _unknown(self, name: object) -> ValueError:
        msg = (
            f"unknown {self.kind} {name!r}; "
            f"available: {', '.join(self.available())}"
        )
        alias_map = self.aliases()
        if alias_map:
            folded = ", ".join(f"{a} -> {c}" for a, c in alias_map.items())
            msg += f" (aliases: {folded})"
        return ValueError(msg)

