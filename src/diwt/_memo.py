"""A bounded least-recently-used memo with hit and miss counts.

Every cache kept across calls is one: the kernel columns of
:mod:`diwt.kernels`, and in :mod:`diwt.specfun` the scaled Whittaker
batches, the contour factors and each factor's node grids.  A caller asks
for a batch of keys with ``fill``, which computes the missing values in one
call; a key must name everything that fixes its value's bits.

A memo bounds and counts points.  An entry's points are ``points(key)``,
one by default: the contour caches count entries, while the kernel and W
memos key one array per batch of x and count its x.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple

MemoInfo = namedtuple("MemoInfo", "hits misses entries")


def _one(key) -> int:
    return 1


class LRUMemo(OrderedDict):
    """At most ``size`` points, held in the memo itself from least to most
    recently used; a stored value is never None.

    An entry of more than ``size`` points is computed and returned but never
    stored, so it evicts nothing.
    """

    def __init__(self, size: int, points=_one):
        super().__init__()
        self.size = size
        self.points = points
        self._stored = self._hits = self._misses = 0

    def fill(self, keys: list, compute) -> list:
        """The value of every key, in the order of ``keys``.

        Each key found becomes the most recent.  The positions in ``keys``
        of the keys not found go, in order, to one ``compute(todo)`` call,
        which returns their values in that order; those are then stored,
        and the least recently used entries past ``size`` points evicted.
        If ``compute`` raises, nothing is stored.
        """
        get, move, points = self.get, self.move_to_end, self.points
        got, todo = [], []
        hits = misses = 0
        for i, key in enumerate(keys):
            value = get(key)
            if value is None:
                todo.append(i)
                misses += points(key)
            else:
                move(key)
                hits += points(key)
            got.append(value)
        self._hits += hits
        self._misses += misses
        if todo:
            done = compute(todo)
            size = self.size
            for i, value in zip(todo, done):
                got[i] = value
                key = keys[i]
                n = points(key)
                if n <= size and key not in self:
                    self[key] = value
                    self._stored += n
            while self._stored > size:
                self._stored -= points(self.popitem(last=False)[0])
        return got

    def info(self) -> MemoInfo:
        """Hits, misses (points since creation or the last ``clear()``) and stored points."""
        return MemoInfo(self._hits, self._misses, self._stored)

    def clear(self) -> None:
        super().clear()
        self._stored = self._hits = self._misses = 0
