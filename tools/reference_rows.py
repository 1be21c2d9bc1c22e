"""What the reference-row tools share: the checkout they read, their
median-CPU timer and their value digest.

ROOT, the first argument of each tool, is a source checkout, this one by
default; its ``src/`` and the tool's own directories go first on
``sys.path``, so the same tool times an older checkout.
"""

import hashlib
import statistics
import sys
import time
from pathlib import Path


def checkout(*dirs):
    """ROOT, with its ``src/`` and ``dirs`` put first on ``sys.path``."""
    root = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / d) for d in ("src", *dirs)]
    return root


def cpu_s(call, repeats):
    """The median CPU time of ``repeats`` calls, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return statistics.median(times)


def digest(value):
    """The first 16 hex digits of the SHA-256 of ``repr(value)``, which must
    agree between checkouts."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]
