"""One benchmark set-up in a fresh interpreter: ``import convalloc`` and load
every instance file of a corpus directory.

Usage: python3 setup_probe.py SRC_DIR CORPUS_DIR
Prints the elapsed seconds and, after them, the median time of the reference
loop in this process, which the caller uses to normalize the first.
"""

import statistics
import sys
import time
from pathlib import Path

from reference import time_reference


def main() -> None:
    src, corpus = sys.argv[1], Path(sys.argv[2])
    paths = [str(p) for p in sorted(corpus.glob("*.json"))]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import convalloc
    for path in paths:
        convalloc.load_instance(path)
    elapsed = time.perf_counter() - start
    reference = statistics.median(time_reference() for _ in range(15))
    print(repr(elapsed), repr(reference))


if __name__ == "__main__":
    main()
