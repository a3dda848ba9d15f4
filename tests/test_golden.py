"""Pinned output bytes of ``convalloc solve`` on a fixed seeded set.

The result JSON (``-o``) and the table trace (``--trace``) of every case are
hashed in order; a change to the solver that alters any byte of either, on
any case, changes a digest.  A speed-up must leave both as they are.
"""

import hashlib

from convalloc import Mode, dump_instance, gen_inclusion_free
from convalloc.cli import main

# Pinned on the commit before the integer DP kernel.
# (seed, n, m, mode, k): both modes at k = 4 and 8, two Max-Min searches
# whose first decide fails, and the largest required Min-Max shape.
GOLDEN_CASES = (
    [(seed, 1 + seed % 5, 4 + 3 * seed, mode, k)
     for mode in (Mode.MAXMIN, Mode.MINMAX)
     for k in (4, 8)
     for seed in range(10)]
    + [(21, 4, 6, Mode.MAXMIN, 8), (39, 4, 6, Mode.MAXMIN, 8),
       (3, 12, 120, Mode.MINMAX, 8)]
)

RESULT_SHA256 = "db0b20c07f3f2dab7705a31a322f53f7e8155e3515038e3997d2953c54f04a63"
TRACE_SHA256 = "e77c036e6778d742ee83893b79091082c614654c54566324377b3bcc0e3eb515"

# Pinned on the commit before Max-Min rows on nu_0 alone took the box scan.
# Long intervals whose items are all small: each search runs one Max-Min
# decide on nu_0 alone that walks rows n..2.
ALL_SMALL_MAXMIN_CASES = [(7, 4, 400, Mode.MAXMIN, 8), (7, 4, 200, Mode.MAXMIN, 8),
                          (1, 3, 300, Mode.MAXMIN, 4)]

ALL_SMALL_RESULT_SHA256 = "0aeeb5d5875f6b5b606b6b99660ae7a4a475235fb9ab5cd99188fce60b6a2505"
ALL_SMALL_TRACE_SHA256 = "02fdff4b8cda9ebb5bb20c56b95fadf317928d7310d4f881fe722c90f6d4592e"


def solve_digests(tmp_path, cases=GOLDEN_CASES) -> tuple[str, str]:
    results, traces = hashlib.sha256(), hashlib.sha256()
    for i, (seed, n, m, mode, k) in enumerate(cases):
        instance = tmp_path / f"case{i}.json"
        result, trace = tmp_path / f"case{i}.out.json", tmp_path / f"case{i}.trace"
        dump_instance(gen_inclusion_free(seed, n, m, mode=mode), str(instance))
        assert main(["solve", "-k", str(k), "-i", str(instance), "-o", str(result),
                     "--trace", str(trace)]) == 0
        results.update(result.read_bytes())
        traces.update(trace.read_bytes())
    return results.hexdigest(), traces.hexdigest()


def test_solve_bytes_are_pinned(tmp_path, capsys):
    assert solve_digests(tmp_path) == (RESULT_SHA256, TRACE_SHA256)


def test_all_small_maxmin_bytes_are_pinned(tmp_path, capsys):
    assert (solve_digests(tmp_path, ALL_SMALL_MAXMIN_CASES)
            == (ALL_SMALL_RESULT_SHA256, ALL_SMALL_TRACE_SHA256))
