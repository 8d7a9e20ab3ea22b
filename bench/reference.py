"""A frozen reference computation: the machine's speed, measured beside a sample.

The benchmark box is a small shared VM that slows down for minutes at a time,
by a factor that itself moves every few seconds (``SparkER.run`` on one fixed
input: 1.02-2.23 s within five minutes; neighbours, not this program), which
no statistic inside one run removes.  So every gated timing is taken
*relative to* this computation: it runs right before and right after each
timed sample, and the sample is divided by ``wall / NOMINAL_S`` of its two
neighbours.  A change to the program moves the sample and not the reference,
so gains and regressions read exactly as they would in raw seconds; a slow
spell of the machine moves both and cancels.

The work is python-object work shaped like the program's own: tokenising
strings into an inverted index of lists and sets, a pair set, a tuple sort.
Measured beside ``SparkER.run`` through such a spell it slowed by the same
factor (log-log slope 0.94) where a numpy argsort/bincount slowed far less, so
there is no numpy in it.  It imports nothing from ``src/`` and must never
change: changing it rescales every ``run_s`` and ``setup_s`` ever recorded.
"""

from __future__ import annotations

import functools
import gc
import random
import time

# Wall-clock of one reference() inside a workload process on the calm VM, so
# that reference-relative seconds read as that VM's calm-state seconds.
NOMINAL_S = 0.095

_EXPECTED = None


@functools.lru_cache(maxsize=None)
def _inputs():
    """Built on first use, so the benchmark's timed imports do not pay for it."""
    rng = random.Random(20190326)
    vocabulary = ["".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(3, 9)))
                  for _ in range(6000)]
    return [" ".join(rng.choices(vocabulary, k=8)).title() for _ in range(14000)]


def reference() -> float:
    """Run the fixed computation once; return its wall-clock seconds."""
    global _EXPECTED
    records = _inputs()
    # No collector inside: a collection walks the *program's* live heap, so the
    # reference would follow the workload's state instead of the machine's
    # (measured: 1.4 x in half of the e2e_sparse processes, 1.0 x in the rest).
    # It builds no cycles; reference counting frees everything.
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        index: "dict[str, list[int]]" = {}
        for number, record in enumerate(records):
            for token in set(record.lower().split()):
                index.setdefault(token, []).append(number)
        pairs = set()
        for members in index.values():
            if len(members) <= 40:
                pairs.update(zip(members, members[1:]))
        ordered = sorted(pairs)
        elapsed = time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()
    outcome = (len(index), len(ordered), ordered[len(ordered) // 2])
    if _EXPECTED is None:
        _EXPECTED = outcome
    elif outcome != _EXPECTED:
        raise AssertionError("the reference computation is not deterministic")
    return elapsed


class RelativeClock:
    """Scales timed samples by the machine's speed measured beside them.

    ``relative(raw)`` runs the reference once more and divides ``raw`` by the
    mean of that and the previous reference over ``NOMINAL_S``: call it right
    after each sample, samples back to back, so each has a reference on
    either side.
    """

    def __init__(self) -> None:
        reference()  # first call: cold caches, fixes the expected outcome
        self._before = reference()
        self.factors = [self._before / NOMINAL_S]

    def factor(self) -> float:
        """Machine slowness now (1.0 = nominal), from the last two references."""
        after = reference()
        self.factors.append((self._before + after) / 2 / NOMINAL_S)
        self._before = after
        return self.factors[-1]

    def relative(self, raw: float) -> float:
        return raw / self.factor()

