"""A bounded least-recently-used memo with hit and miss counts.

The kernel entries of :mod:`diwt.kernels` and the scaled Whittaker values
of :mod:`diwt.specfun` are each kept in one.  A caller looks up a batch of
keys, computes what it missed, and stores those values; a key must name
everything that fixes its value's bits.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple

MemoInfo = namedtuple("MemoInfo", "hits misses entries")


class LRUMemo:
    """At most ``size`` entries; storing past that evicts the least recently used."""

    def __init__(self, size: int):
        self.size = size
        self._entries: OrderedDict = OrderedDict()
        self._hits = self._misses = 0

    def lookup(self, keys: list) -> list:
        """The stored value of each key, or None; each key found becomes the most recent."""
        entries = self._entries
        got = list(map(entries.get, keys))
        found = [key for key, value in zip(keys, got) if value is not None]
        for key in found:
            entries.move_to_end(key)
        self._hits += len(found)
        self._misses += len(keys) - len(found)
        return got

    def store(self, keys: list, values: list) -> None:
        entries = self._entries
        entries.update(zip(keys, values))
        while len(entries) > self.size:
            entries.popitem(last=False)

    def info(self) -> MemoInfo:
        """Hits and misses since creation or the last ``clear()``, and the stored entries."""
        return MemoInfo(self._hits, self._misses, len(self._entries))

    def clear(self) -> None:
        self._entries.clear()
        self._hits = self._misses = 0
