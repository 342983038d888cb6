"""Module placement: consistent-hash routing of module -> shard.

Routing must be a pure function of the module name and the shard set —
every shard (and the serving layer) computes the same answer with no
coordination, and adding a shard moves only ~1/N of the modules.  The
classic construction: each shard contributes :data:`DEFAULT_VNODES`
points on a hash ring (SHA-256 of ``"shard:replica"``), and a module
lives on the shard owning the first point clockwise of the module's own
hash.

Explicit *pins* override the ring — the conformance tests and the
examples use them to place specific modules on specific shards, and
``repro optimize --placement`` plans them.  A placement is fixed when
its cluster is built: to place modules differently, build a new
cluster.
"""

from __future__ import annotations

import bisect
import hashlib
from types import MappingProxyType

from repro.errors import RouteError

#: Ring points per shard; enough that a module census spreads evenly
#: across up to 8 shards.
DEFAULT_VNODES = 64


def _point(key: str) -> int:
    """A 64-bit position on the ring for *key*."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over a fixed set of shard ids."""

    def __init__(self, shard_ids: list[int]) -> None:
        if not shard_ids:
            raise RouteError("a hash ring needs at least one shard")
        self.shard_ids = sorted(shard_ids)
        points: list[tuple[int, int]] = []
        for shard_id in self.shard_ids:
            for replica in range(DEFAULT_VNODES):
                points.append((_point(f"shard-{shard_id}:{replica}"), shard_id))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]
        #: key -> owner.  The ring never changes after construction, so
        #: each key is hashed once; keys are module names, so the memo
        #: is bounded by the module census.
        self._homes: dict[str, int] = {}

    def home(self, key: str) -> int:
        """The shard owning *key*: first ring point clockwise of its hash."""
        owner = self._homes.get(key)
        if owner is None:
            index = bisect.bisect_right(self._points, _point(key)) % len(self._points)
            owner = self._homes[key] = self._owners[index]
        return owner


class Placement:
    """Where each module executes: pins first, the ring otherwise.

    Fixed at construction: ``pins`` is a read-only mapping, so every
    participant that built its placement from the same pins routes by
    the same table for the life of the cluster.
    """

    def __init__(
        self, shard_ids: list[int], pins: dict[str, int] | None = None
    ) -> None:
        self.ring = HashRing(shard_ids)
        self.pins = MappingProxyType(dict(pins or {}))
        known = set(self.ring.shard_ids)
        for module, shard_id in self.pins.items():
            if shard_id not in known:
                raise RouteError(
                    f"module {module!r} pinned to unknown shard {shard_id}"
                )

    def home(self, module: str) -> int:
        """The shard on which *module*'s procedures execute."""
        pinned = self.pins.get(module)
        if pinned is not None:
            return pinned
        return self.ring.home(module)

    def table(self, modules: list[str]) -> dict[str, int]:
        """The full routing table for a module census (docs, reports)."""
        return {module: self.home(module) for module in sorted(modules)}
