"""Machine speed, measured with a fixed mix of the work divgen does.

The benchmark's machine is shared and its speed drifts from one second to the
next. Workers time this mix next to every stretch of work they time (each
set-up, each stretch of generation between two run-log events, each report)
and the benchmark scales the work by it. The mix never calls divgen, so it
measures how fast the machine is at that moment, not how fast the program is.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import time
import zlib
from collections import Counter

import numpy as np

_REF_TEXT = " ".join(random.Random(0).choice(
    "weather forecast city hotel flight price year event currency amount route".split())
    for _ in range(600))
_REF_MATRIX = np.random.default_rng(0).random((24, 24))


def _reference_mix() -> None:
    words = _REF_TEXT.split()
    prev = list(range(81))
    for x in words[:80]:  # the edit-distance dynamic program
        cur = [prev[0] + 1]
        for j, y in enumerate(words[80:160], 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    for _ in range(6):
        Counter(re.findall(r"[a-z0-9]+", _REF_TEXT.lower()))
        zlib.compress(_REF_TEXT.encode(), 6)
        json.loads(json.dumps({f"k{i}": [i, "value"] for i in range(400)}))
    for i in range(4000):
        hashlib.md5(str(i).encode()).digest()
    table: dict = {}
    for i in range(8000):
        table[(i, i % 7)] = table.get((i % 50, 0), 0) + 1
    kernel = _REF_MATRIX @ _REF_MATRIX.T / 24
    for _ in range(60):
        np.linalg.eigvalsh(kernel)


def reference_seconds() -> float:
    """Time of one run of the mix, about 10 ms on a quiet 2-core machine.

    Like the work it is compared with, it includes whatever slowed the machine
    down while it ran. The garbage collector is off meanwhile: the mix frees
    what it allocates, so a collection of divgen's own heap, whose cost grows
    with that heap, never lands in the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_mix()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
