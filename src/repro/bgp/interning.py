"""Cross-speaker route/attribute interning.

At Internet scale, N speakers hold largely overlapping sets of immutable
route value objects: the same :class:`PathAttributes` bundle is re-derived
on every re-announcement, re-import and export recomputation, and every
copy drags its own :class:`AsPath` tuple chain along.  A
:class:`RouteInterner` is a per-simulation intern table mapping each value
to its first-seen instance, so equal routes share one object no matter how
many speakers hold them.

Interning is semantics-free by construction — the returned object compares
equal to the argument, and all interned types are deeply immutable — but it
buys two things:

* memory: one ``PathAttributes``/``AsPath`` instance per distinct value
  instead of one per (speaker, derivation);
* speed: downstream equality checks (Adj-RIB-Out duplicate suppression,
  import duplicate detection, prepend memo keys) hit the ``x is y``
  identity fast path, and dict lookups short-circuit on identity before
  ever comparing payloads.

One interner is shared by every speaker of a
:class:`~repro.bgp.network.Network`; standalone speakers get a private
one.  Lint rule R008 enforces that hot-path BGP modules route fresh
``PathAttributes``/``AsPath`` construction through this table.
"""

from __future__ import annotations

from typing import Dict

from repro.bgp.attributes import AsPath, PathAttributes


class RouteInterner:
    """Per-simulation intern table for immutable route value objects."""

    __slots__ = ("_attributes", "_paths", "hits", "misses")

    def __init__(self) -> None:
        self._attributes: Dict[PathAttributes, PathAttributes] = {}
        self._paths: Dict[AsPath, AsPath] = {}
        self.hits = 0
        self.misses = 0

    def attributes(self, attributes: PathAttributes) -> PathAttributes:
        """The canonical instance equal to ``attributes``.

        The first instance seen for a value becomes canonical; later equal
        instances are dropped in favour of it.
        """
        canonical = self._attributes.get(attributes)
        if canonical is None:
            self._attributes[attributes] = attributes
            self.misses += 1
            return attributes
        self.hits += 1
        return canonical

    def as_path(self, path: AsPath) -> AsPath:
        """The canonical instance equal to ``path``."""
        canonical = self._paths.get(path)
        if canonical is None:
            self._paths[path] = path
            self.misses += 1
            return path
        self.hits += 1
        return canonical

    def __len__(self) -> int:
        return len(self._attributes) + len(self._paths)

    def stats(self) -> Dict[str, int]:
        """Table sizes and hit counters (diagnostics / benchmarks)."""
        return {
            "attributes": len(self._attributes),
            "paths": len(self._paths),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        """Drop the tables (idempotent; canonical objects stay valid)."""
        self._attributes.clear()
        self._paths.clear()
        self.hits = 0
        self.misses = 0
