"""A bounded least-recently-used memo with hit and miss counts.

Every cache kept across calls is one: the kernel entries of
:mod:`diwt.kernels`, and in :mod:`diwt.specfun` the scaled Whittaker values,
the contour factors and each factor's node grids.  A caller asks for a
batch of keys with ``fill``, which computes the missing values in one call;
a key must name everything that fixes its value's bits.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple

MemoInfo = namedtuple("MemoInfo", "hits misses entries")


class LRUMemo(OrderedDict):
    """At most ``size`` entries, held in the memo itself from least to most
    recently used; a stored value is never None."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size
        self._hits = self._misses = 0

    def fill(self, keys: list, compute) -> list:
        """The value of every key, in the order of ``keys``.

        Each key found becomes the most recent.  The positions in ``keys``
        of the keys not found go, in order, to one ``compute(todo)`` call,
        which returns their values in that order; those are then stored,
        and the least recently used entries past ``size`` evicted.  If
        ``compute`` raises, nothing is stored.
        """
        get, move = self.get, self.move_to_end
        got, todo = [], []
        for i, key in enumerate(keys):
            value = get(key)
            if value is None:
                todo.append(i)
            else:
                move(key)
            got.append(value)
        self._hits += len(keys) - len(todo)
        self._misses += len(todo)
        if todo:
            done = compute(todo)
            for i, value in zip(todo, done):
                got[i] = value
                self[keys[i]] = value
            while len(self) > self.size:
                self.popitem(last=False)
        return got

    def info(self) -> MemoInfo:
        """Hits and misses since creation or the last ``clear()``, and the stored entries."""
        return MemoInfo(self._hits, self._misses, len(self))

    def clear(self) -> None:
        super().clear()
        self._hits = self._misses = 0
