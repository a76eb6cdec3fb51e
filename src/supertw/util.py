"""Ordering, budget and collector helpers used by every construction.

Everything in this package that emits or iterates collections does so in a
deterministic order so that two runs on the same input produce byte-identical
artifacts, regardless of PYTHONHASHSEED. `ordkey` supplies a total order
across the mixed id types we use (ints, strings, tuples, frozensets, and the
symbol dataclasses, which expose a `sort_key()`).
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager

from .errors import ResourceExceededError


def ordkey(x):
    """Total-order key for heterogeneous, hashable values."""
    if x is None:
        return (0,)
    if isinstance(x, bool):
        return (1, x)
    if isinstance(x, int):
        return (2, x)
    if isinstance(x, str):
        return (3, x)
    if isinstance(x, tuple):
        return (4, tuple(ordkey(e) for e in x))
    if isinstance(x, (frozenset, set)):
        return (5, tuple(sorted(ordkey(e) for e in x)))
    sk = getattr(x, "sort_key", None)
    if sk is not None:
        return (6, type(x).__name__, sk())
    return (7, type(x).__name__, repr(x))


def osorted(xs):
    return sorted(xs, key=ordkey)


@contextmanager
def gc_paused():
    """Disable the cyclic garbage collector for the duration, if enabled.

    A pipeline run allocates many container objects (product-state keys,
    subsets, cache entries; transitions are int columns). They live until
    the run ends and almost never form cycles, yet every full collection
    walks all of them; reference counting frees the acyclic garbage
    either way.
    The collector state is process-wide, so a thread running beside the
    body sees it paused too. When the collector is already disabled on
    entry, nothing changes: nested uses and a caller's own `gc.disable()`
    are left as they were found. Usable as a `with` block or a decorator.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


DEFAULT_MAX_TRANSITIONS = 10_000_000


class Budget:
    """Mutable resource meter threaded through automaton constructions.

    Counts transitions materialized across a whole pipeline run and enforces
    an optional wall-clock deadline. Constructions call `spend(n, stage)`;
    exceeding either limit raises ResourceExceededError.

    Cache hits answer to the budget too. A `ChargedCache` entry keeps the
    cold cost of its construction: what building it from empty caches
    would charge, split into the own charge of every cache key it rests
    on. A hit adds the keys this budget has not met yet to `cached` and
    checks the limits as `spend` would, but adds nothing to `used`, which
    keeps counting only what was materialized. The limit applies to
    `used + cached`, so a run raises or returns as it would from cold
    caches, whichever caches answered.
    """

    def __init__(self, max_transitions=DEFAULT_MAX_TRANSITIONS, timeout_secs=None):
        self.max_transitions = max_transitions
        self.deadline = None if timeout_secs is None else time.monotonic() + timeout_secs
        self.used = 0
        self.cached = 0
        self._met = set()  # cache keys built or replayed under this budget
        self._frames = []  # open cache builds, innermost last

    def spend(self, n, stage):
        self.used += n
        total = self.used + self.cached
        if self.max_transitions is not None and total > self.max_transitions:
            raise ResourceExceededError(
                f"{stage}: transition budget exceeded ({total} > {self.max_transitions})",
                stage=stage, count=total, limit=self.max_transitions)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceExceededError(f"{stage}: deadline exceeded", stage=stage)

    def check_time(self, stage):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceExceededError(f"{stage}: deadline exceeded", stage=stage)

    def replay(self, costs, stage):
        """Answer a cache hit whose cold cost is `costs` (key -> own charge)."""
        if self._frames:
            self._frames[-1].costs.update(costs)
        for key, own in costs.items():
            if key not in self._met:
                self._met.add(key)
                self.cached += own
        self.spend(0, stage)

    def build(self, key, make):
        """Run make() as the cold build of `key`; returns (value, costs).

        costs maps `key` and every cache key met inside make() to its own
        charge: a key's own charge is what its build spent outside the
        cache builds nested in it.
        """
        frame = _Frame(self.used)
        self._frames.append(frame)
        try:
            value = make()
        finally:
            self._frames.pop()
        spent = self.used - frame.start
        frame.costs[key] = spent - frame.nested
        self._met.add(key)
        if self._frames:
            outer = self._frames[-1]
            outer.nested += spent
            outer.costs.update(frame.costs)
        return value, frame.costs


class _Frame:
    __slots__ = ("start", "nested", "costs")

    def __init__(self, start):
        self.start = start
        self.nested = 0
        self.costs = {}


_CACHES = []


def register_cache(cache):
    """Add a process-wide cache (anything with clear()) to the registry."""
    _CACHES.append(cache)
    return cache


def clear_registered_caches():
    for cache in _CACHES:
        cache.clear()


class ChargedCache:
    """Process-wide cache of budget-charged constructions.

    Each entry keeps its value with its cold cost (see `Budget`), so a hit
    charges the asking budget as a cold build would.
    """

    def __init__(self, name):
        self.name = name
        self._entries = {}
        register_cache(self)

    def __contains__(self, key):
        return key in self._entries

    def clear(self):
        self._entries.clear()

    def cost(self, key):
        """Cold cost of the entry for key."""
        return sum(self._entries[key][1].values())

    def fetch(self, key, budget, make):
        """(value, whether the cache answered); make() builds on a miss."""
        entry = self._entries.get(key)
        if entry is not None:
            value, costs = entry
            budget.replay(costs, self.name)
            return value, True
        value, costs = budget.build((self.name, key), make)
        self._entries[key] = (value, costs)
        return value, False
