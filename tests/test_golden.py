"""Pinned output bytes of ``convalloc solve`` on a fixed seeded set.

The result JSON (``-o``) and the table trace (``--trace``) of every case are
hashed in order; a change to the solver that alters any byte of either, on
any case, changes a digest.  A speed-up must leave both as they are.

The Min-Max result digest is the one pinned before the integer DP kernel.
The Min-Max trace digest was re-pinned when each Min-Max row came to keep
only its minimal vectors: a trace lists the kept marks alone, but the success
bit and every pointer on the chain from row 1 are the full table's, so the
results are unchanged.  The Max-Min digests were re-pinned when each Max-Min row came to keep only
its maximal vectors.  The success bit of every decide is unchanged, so every
search tries the same guesses and ends at the same ``t_star``.  But a Max-Min
trace now lists the kept marks alone, and every pointer chain runs through
maximal remainders.  On the 22 cases of ``MAXMIN_CASES`` the trace shrank
on 15, and the result changed on 9: the objective fell on 2, rose on 4 and
stayed on 3.  On the all-small cases each row keeps one mark, its largest
nu_0, and the results are unchanged.
"""

import hashlib

from convalloc import Mode, dump_instance, gen_inclusion_free
from convalloc.cli import main

# (seed, n, m, mode, k): both modes at k = 4 and 8, two Max-Min searches
# whose first decide fails, and the largest required Min-Max shape.
MINMAX_CASES = ([(seed, 1 + seed % 5, 4 + 3 * seed, Mode.MINMAX, k)
                 for k in (4, 8) for seed in range(10)]
                + [(3, 12, 120, Mode.MINMAX, 8)])

MINMAX_RESULT_SHA256 = "22ce97ec3b19853b05caeee677de21a32591e41b0b911c1bcf73a1a20f702e2e"
MINMAX_TRACE_SHA256 = "d9244d701524358e62499165f4d4644df55fc1b4dc91173b7f4a55ae07e11ed7"

MAXMIN_CASES = ([(seed, 1 + seed % 5, 4 + 3 * seed, Mode.MAXMIN, k)
                 for k in (4, 8) for seed in range(10)]
                + [(21, 4, 6, Mode.MAXMIN, 8), (39, 4, 6, Mode.MAXMIN, 8)])

MAXMIN_RESULT_SHA256 = "bb42c679cf7c8651381eaa9c384ed7b053b58dbbb56438090c0d23f9691537d3"
MAXMIN_TRACE_SHA256 = "16b68217e853c4e12b612ab0567d06245ecb65a5f3ccd7ef28c1693335d52d35"

# Long intervals whose items are all small: each search runs one Max-Min
# decide on nu_0 alone that walks rows n..2.
ALL_SMALL_MAXMIN_CASES = [(7, 4, 400, Mode.MAXMIN, 8), (7, 4, 200, Mode.MAXMIN, 8),
                          (1, 3, 300, Mode.MAXMIN, 4)]

ALL_SMALL_RESULT_SHA256 = "0aeeb5d5875f6b5b606b6b99660ae7a4a475235fb9ab5cd99188fce60b6a2505"
ALL_SMALL_TRACE_SHA256 = "8bc3d8fdbc32f8e120ba641469ac32ab17187a2458a7f802469450dd527c3a2a"


def solve_digests(tmp_path, cases) -> tuple[str, str]:
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


def test_minmax_bytes_are_pinned(tmp_path, capsys):
    assert solve_digests(tmp_path, MINMAX_CASES) == (MINMAX_RESULT_SHA256, MINMAX_TRACE_SHA256)


def test_maxmin_bytes_are_pinned(tmp_path, capsys):
    assert solve_digests(tmp_path, MAXMIN_CASES) == (MAXMIN_RESULT_SHA256, MAXMIN_TRACE_SHA256)


def test_all_small_maxmin_bytes_are_pinned(tmp_path, capsys):
    assert (solve_digests(tmp_path, ALL_SMALL_MAXMIN_CASES)
            == (ALL_SMALL_RESULT_SHA256, ALL_SMALL_TRACE_SHA256))
