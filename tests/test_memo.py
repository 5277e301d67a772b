"""The bounded LRU memo behind every cross-call cache, and the benchmark's
view of those caches."""

import importlib.util
from pathlib import Path

import pytest

from diwt import specfun
from diwt._memo import LRUMemo


def _fill(memo, keys):
    # (values, positions asked for) of one fill whose value of k is 10 k
    asked = []

    def compute(todo):
        asked.append(list(todo))
        return [10 * keys[i] for i in todo]

    return memo.fill(keys, compute), asked


def test_fill_computes_the_missing_positions_in_order():
    memo = LRUMemo(8)
    assert _fill(memo, [3, 1, 2]) == ([30, 10, 20], [[0, 1, 2]])
    assert _fill(memo, [5, 1, 4, 3]) == ([50, 10, 40, 30], [[0, 2]])
    assert memo.info() == (2, 5, 5)
    assert _fill(memo, [2, 4]) == ([20, 40], [])
    assert memo.info() == (4, 5, 5)
    assert _fill(memo, []) == ([], [])
    assert dict(memo) == {3: 30, 1: 10, 2: 20, 5: 50, 4: 40}


def test_fill_evicts_the_least_recently_used(monkeypatch):
    memo = LRUMemo(16)
    monkeypatch.setattr(memo, "size", 3)
    _fill(memo, [1, 2, 3])
    _fill(memo, [1])
    _fill(memo, [4])
    assert list(memo) == [3, 1, 4]
    assert _fill(memo, [2, 3]) == ([20, 30], [[0]])
    assert list(memo) == [4, 3, 2]
    assert memo.info() == (2, 5, 3)


def test_fill_bounds_and_counts_points():
    # an entry's points come from its key, here the key's length; the bound
    # evicts least recently used entries until the stored points fit
    memo = LRUMemo(5, points=len)
    assert _fill(memo, ["ab", "c"]) == (["ab" * 10, "c" * 10], [[0, 1]])
    assert memo.info() == (0, 3, 3)
    _fill(memo, ["ab"])
    assert _fill(memo, ["def"]) == (["def" * 10], [[0]])  # 6 points: evicts "c"
    assert list(memo) == ["ab", "def"] and memo.info() == (2, 6, 5)
    _fill(memo, ["gh"])  # evicts "ab", used longest ago
    assert list(memo) == ["def", "gh"] and memo.info() == (2, 8, 5)


def test_fill_never_stores_an_entry_past_the_bound():
    # an entry of more points than the bound is returned, counted as missed
    # each time, and stored nowhere; it evicts nothing
    memo = LRUMemo(3, points=len)
    _fill(memo, ["ab"])
    for _ in range(2):
        assert _fill(memo, ["wxyz", "ab"]) == (["wxyz" * 10, "ab" * 10], [[0]])
    assert list(memo) == ["ab"] and memo.info() == (4, 10, 2)


def test_fill_stores_nothing_when_compute_raises():
    memo = LRUMemo(8)
    _fill(memo, [1])

    def fail(todo):
        raise RuntimeError("no value")

    with pytest.raises(RuntimeError):
        memo.fill([1, 2, 3], fail)
    assert list(memo) == [1]
    assert memo.info() == (1, 3, 1)
    memo.clear()
    assert memo.info() == (0, 0, 0) and not memo


def test_benchmark_tracer_finds_every_boundary_and_cache():
    # perfbench/tracing.py resolves functions and caches of diwt by name and
    # reads the contour caches as dicts; a name it cannot resolve, or a
    # cache that is not a dict, silently drops its metrics from a run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        assert isinstance(specfun._CONTOUR_CACHE, dict)
        cf = specfun._contour_factor(0.25, 1j, 1.0)
        assert isinstance(cf._cache, dict)
    finally:
        tracer.uninstall()
