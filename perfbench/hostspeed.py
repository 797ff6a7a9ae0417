"""A fixed pass of work, timed around each timed call to gauge host speed.

The benchmark runs on a few cores of a shared host, whose speed drifts
by 1.5x and more over seconds to minutes.  Every loop drifts with it, the
package's and any other.  So each inference call is bracketed by two
passes of a fixed workload that shares no code with the package, and the
call's wall time is reported scaled by REF_S over the mean of the two:
the time it would have taken while the host ran one pass in REF_S.

A pass has three parts, each a kind of work the pipelines do:

- dict lookups that hop at random between 200 tables holding 200 000
  string keys in all, about 20 MB: REA's string-keyed dicts;
- an integer loop: interpreter dispatch;
- touching fresh anonymous pages, which the kernel faults in and zeroes:
  run_gbs spends about half its time on such faults for its numpy
  temporaries.

Nothing the pass allocates is freed until the process ends, and no block
of it reaches glibc's mmap threshold (128 KiB); its pages come from
mmap.mmap, outside malloc.  Freeing a larger malloc block would raise that
threshold, after which run_gbs stops page-faulting and runs several times
faster: the pass would change the program it gauges.
"""

from __future__ import annotations

import mmap
import random
import time

REF_S = 0.09  # median pass time on the reference host (README)
TABLES = 200  # dicts of KEYS string keys each
KEYS = 1000
LOOKUP_CHUNKS = 50  # chunks of KEYS random lookups per pass
INT_STEPS = 330_000
MAPS = 8  # fresh anonymous maps per pass
MAP_BYTES = 4 << 20


class HostSpeed:
    def __init__(self):
        self.created = time.perf_counter()
        tables = tuple({f"{t}:{i}": i for i in range(KEYS)} for t in range(TABLES))
        keys = tuple(tuple(table) for table in tables)
        rng = random.Random(0)
        # tuples of small objects: no large block, and the collector soon
        # stops visiting them
        self._lookups = tuple(
            tuple((tables[t], keys[t][rng.randrange(KEYS)])
                  for t in (rng.randrange(TABLES) for _ in range(KEYS)))
            for _ in range(LOOKUP_CHUNKS))
        self._tables = tables  # keeps every key alive with its table
        self.pass_s()  # warm-up

    def pass_s(self) -> float:
        """Run one pass; its wall time in seconds."""
        clock = time.perf_counter
        start = clock()
        total = 0
        for chunk in self._lookups:
            for table, key in chunk:
                total += table[key]
        for i in range(INT_STEPS):
            total += i & 7
        for _ in range(MAPS):
            with mmap.mmap(-1, MAP_BYTES) as m:
                for offset in range(0, MAP_BYTES, mmap.PAGESIZE):
                    m[offset] = 1
        return clock() - start
