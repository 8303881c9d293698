"""The shared thread-safe LRU behind the query cache and the recommender's
profile cache."""

import threading

import pytest

from repro.lru import ThreadSafeLRU


def test_lru_eviction_order_and_counters():
    lru = ThreadSafeLRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refreshes "a"; "b" is now LRU
    lru.put("c", 3)
    assert len(lru) == 2
    assert lru.get("b") is None
    assert lru.get("a") == 1 and lru.get("c") == 3
    assert (lru.hits, lru.misses) == (3, 1)


def test_clear_keeps_counters():
    lru = ThreadSafeLRU(4)
    lru.put("a", 1)
    assert lru.get("a") == 1
    lru.clear()
    assert len(lru) == 0
    assert lru.get("a") is None
    assert (lru.hits, lru.misses) == (1, 1)


def test_negative_bound_rejected():
    with pytest.raises(ValueError):
        ThreadSafeLRU(-1)


def test_concurrent_access_stays_bounded():
    lru = ThreadSafeLRU(8)

    def worker(base):
        for i in range(200):
            lru.put((base, i), i)
            lru.get((base, i))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(lru) <= 8
