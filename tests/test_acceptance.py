"""Acceptance suite: every guarantee checked against the exhaustive oracle.

Each test prints one pass/fail line (run pytest with -s to watch them).

* criterion 7b checks the failure band the method promises: decide fails
  whenever opt < (1 - 4/(k+1)) t, and every success it returns is feasible
  and worth at least (1 - 4/(k+1)) t.  Between that line and t a success is
  allowed but not promised.
* criterion 8b checks the category count: C is the least integer with
  (1+1/k)^C >= k, and C <= k * ceil(log2 k), exactly, for k in 4..64.
"""

from fractions import Fraction

from convalloc import (Mode, align, assignment_vector, decide, hall_violations,
                       is_non_wasteful, is_right_aligned, lexicographic_order,
                       opt_maxmin, opt_minmax, retrieve, round_instance, scale,
                       scheme, solve_maxmin, solve_minmax, verify)
from convalloc.cli import main as cli_main
from convalloc.generator import gen_inclusion_free, gen_planted
from conftest import round_one, with_demands
from reference import check_hall_bruteforce, coverage_ranges


def report(label: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {label}: {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {label}: {detail}"


def random_cases(base_seed, count):
    for i in range(count):
        seed = base_seed + i
        n = 2 + seed % 4
        m = max(n, 4 + seed % 9)
        yield seed, n, m


def test_criterion_1_maxmin_factor():
    violations = []
    for seed, n, m in random_cases(10_000, 200):
        inst = gen_inclusion_free(seed, n, m)
        opt, _ = opt_maxmin(inst)
        for k in (4, 8):
            delta = Fraction(1, 4 * k)
            res = solve_maxmin(inst, k, delta)
            bound = (1 - Fraction(4, k + 1)) * (1 - delta) * opt
            if res.objective < bound:
                violations.append((seed, k))
    report("1", not violations,
           f"max-min objective >= (1-4/(k+1))(1-delta) opt on 200 instances, "
           f"k in (4, 8); violations: {violations}")


def test_criterion_2_minmax_factor():
    violations = []
    for seed, n, m in random_cases(20_000, 200):
        inst = gen_inclusion_free(seed, n, m, mode=Mode.MINMAX)
        opt, _ = opt_minmax(inst)
        for k in (4, 8):
            delta = Fraction(1, 4 * k)
            res = solve_minmax(inst, k, delta)
            bound = (1 + Fraction(4, k) + Fraction(3, k * k)) * (1 + delta) * opt
            if res.objective > bound:
                violations.append((seed, k))
    report("2", not violations,
           f"makespan <= (1+4/k+3/k^2)(1+delta) opt on 200 instances, "
           f"k in (4, 8); violations: {violations}")


def test_criterion_3_worked_example(e1, e1_assignment_2):
    opt, _ = opt_maxmin(e1)
    res = solve_maxmin(e1, 10, Fraction(1, 40))
    half = verify(e1, e1_assignment_2).objective
    ok = (opt == 1
          and res.objective >= Fraction(7, 11) * Fraction(39, 40)
          and half == Fraction(1, 2))
    report("3", ok, f"opt(E1)={opt}, solved objective {res.objective} "
                    f">= 273/440, hoarding assignment is worth exactly {half}")


def test_criterion_4_hall_equivalence():
    import random
    rng = random.Random(444)
    mismatches = 0
    uncontained = 0
    for i in range(500):
        mode = Mode.MAXMIN if i % 2 == 0 else Mode.MINMAX
        n = rng.randint(1, 5)
        m = rng.randint(n, 10)
        inst = gen_inclusion_free(rng.randint(0, 10**6), n, m, mode=mode)
        inst = with_demands(inst, [Fraction(rng.randint(1, 24), rng.randint(1, 12))
                                   for _ in range(inst.n)])
        flagged = tuple(hall_violations(inst))
        subset = check_hall_bruteforce(inst)
        if (not flagged) != (subset is None):
            mismatches += 1
            continue
        if subset is None:
            continue
        if mode is Mode.MAXMIN:
            spans = {a.id: (a.lo, a.hi) for a in inst.agents}
        else:
            spans = {inst.items[p - 1].id: coverage_ranges(inst)[p - 1]
                     for p in range(1, inst.m + 1)}
        if not any(all(w.lo <= spans[x][0] and spans[x][1] <= w.hi for x in subset)
                   for w in flagged):
            uncontained += 1
    report("4", mismatches == 0 and uncontained == 0,
           f"interval and subset checks agree on 500 instances "
           f"(mismatches={mismatches}, witnesses outside flagged intervals="
           f"{uncontained})")


def aligned_cases():
    """100 oracle-certified 1-assignments on planted instances, aligned."""
    for seed in range(25):
        for mode in (Mode.MAXMIN, Mode.MINMAX):
            for k in (4, 8):
                n = 2 + seed % 4
                m = n + 2 + (seed * 5) % 7
                inst, _ = gen_planted(seed, n, m, Fraction(1), mode)
                solve = opt_maxmin if mode is Mode.MAXMIN else opt_minmax
                _, witness = solve(inst)
                rd = round_instance(scale(inst, Fraction(1)),
                                    scheme(k, mode))
                yield mode, k, rd, witness, align(rd, witness)


def test_criterion_5_alignment():
    bad = []
    count = 0
    for mode, k, rd, witness, aligned in aligned_cases():
        count += 1
        ok = is_right_aligned(rd, aligned) and is_non_wasteful(rd, aligned)
        for _, ids in aligned.bundles:
            value = sum((rd.value_at(rd.instance.item_index(x)) for x in ids),
                        Fraction(0))
            value_ok = value > 1 - Fraction(1, k) if mode is Mode.MAXMIN \
                else value < 1 + Fraction(1, k)
            ok = ok and value_ok
        ok = ok and assignment_vector(rd, aligned) == assignment_vector(rd, witness)
        if not ok:
            bad.append((mode.value, k))
    report("5", count == 100 and not bad,
           f"alignment is right-aligned, non-wasteful, value-bounded, and "
           f"vector-preserving on {count} certified 1-assignments; bad: {bad}")


def test_criterion_6_reconstruction():
    bad = []
    for mode, k, rd, _, aligned in aligned_cases():
        order = lexicographic_order(rd.instance)
        bundles = aligned.positions(rd.instance)
        vectors = assignment_vector(rd, aligned)
        survivors = set(range(1, rd.instance.m + 1))
        for j in range(rd.instance.n, 0, -1):
            sub = retrieve(rd, vectors[j - 1], j)
            if sub is None:
                bad.append((mode.value, k, j, "null"))
                break
            true_bigs = {p for p in survivors if rd.category[p - 1]}
            got_bigs = {p for p in sub if rd.category[p - 1]}
            true_smalls = {p for p in survivors if rd.category[p - 1] == 0}
            got_smalls = {p for p in sub if rd.category[p - 1] == 0}
            t_total = sum((rd.value_at(p) for p in true_smalls), Fraction(0))
            g_total = sum((rd.value_at(p) for p in got_smalls), Fraction(0))
            if got_bigs != true_bigs:
                bad.append((mode.value, k, j, "bigs"))
            # the sweep reconstructs a small-item superset in both modes;
            # the deviation stays strictly under 2/k either way
            if not (got_smalls >= true_smalls
                    and Fraction(0) <= g_total - t_total <= Fraction(2, k)):
                bad.append((mode.value, k, j, "smalls"))
            survivors -= set(bundles[order[j - 1]])
    report("6", not bad,
           f"reconstruction returns identical big sets and small supersets "
           f"within 2/k on every remainder of 100 aligned assignments; "
           f"bad: {bad}")


def test_criterion_7a_completeness_and_certification():
    failures = []
    for seed in range(30):
        for mode in (Mode.MAXMIN, Mode.MINMAX):
            for k in (4, 8):
                n = 2 + seed % 4
                m = n + 2 + (seed * 3) % 7
                inst, _ = gen_planted(seed + 7_000, n, m, Fraction(1), mode)
                got = decide(inst, Fraction(1), k)
                if got is None:
                    failures.append((seed, mode.value, k, "no assignment"))
                    continue
                rep = verify(inst, got)
                solve = opt_maxmin if mode is Mode.MAXMIN else opt_minmax
                opt, _ = solve(inst)
                if mode is Mode.MAXMIN:
                    factor_ok = rep.objective >= 1 - Fraction(4, k + 1)
                    opt_ok = opt >= 1 - Fraction(4, k + 1)
                else:
                    factor_ok = rep.objective <= 1 + Fraction(4, k) + Fraction(3, k * k)
                    opt_ok = opt <= 1 + Fraction(4, k) + Fraction(3, k * k)
                if not (rep.feasible and factor_ok and opt_ok):
                    failures.append((seed, mode.value, k, str(rep.objective)))
    report("7a", not failures,
           f"decide succeeds at every planted guess and certifies the stated "
           f"factor (120 runs); failures: {failures}")


def test_criterion_7b_failure_band():
    """No success when opt < (1 - 4/(k+1)) t; every success is certified.

    A success certifies opt >= (1 - 4/(k+1)) t, and decide succeeds
    whenever a t-assignment exists, so the only band in which failure is
    promised is opt < (1 - 4/(k+1)) t.  The stronger line (1 - 1/k) t is not
    a promise: a single agent holding one item of value v with
    (1 - 4/(k+1)) t < v < (1 - 1/k) t may be accepted, since v/t is big,
    rounds up, and can clear the 1 - 3/k rounded bar (v = 3/5, t = 1, k = 8
    is such a case).  Two probe families on the same planted instances:
    t = opt * k/(k-1) * factor puts opt below (1 - 1/k) t, where a success
    is allowed and must verify at (1 - 4/(k+1)) t; t = opt * (k+1)/(k-3) *
    factor puts opt below (1 - 4/(k+1)) t, where decide must fail.
    """
    uncertified = []
    inside_band = []
    successes = 0
    for seed in range(20):
        for k in (4, 8):
            n = 2 + seed % 4
            m = n + 2 + (seed * 3) % 7
            inst, _ = gen_planted(seed + 7_000, n, m, Fraction(1), Mode.MAXMIN)
            opt, _ = opt_maxmin(inst)
            bar = 1 - Fraction(4, k + 1)
            for factor in (Fraction(33, 32), Fraction(2)):
                above = opt * Fraction(k, k - 1) * factor
                below = opt * Fraction(k + 1, k - 3) * factor
                assert opt < (1 - Fraction(1, k)) * above
                assert opt < bar * below
                got = decide(inst, above, k)
                if got is not None:
                    successes += 1
                    rep = verify(inst, got)
                    if not (rep.feasible and rep.objective >= bar * above):
                        uncertified.append((seed, k, str(factor)))
                if decide(inst, below, k) is not None:
                    inside_band.append((seed, k, str(factor)))
    report("7b", not uncertified and not inside_band,
           f"decide never succeeds when opt < (1-4/(k+1)) t (successes in "
           f"the band: {len(inside_band)} of 80 probes); below (1-1/k) t, "
           f"{successes} of 80 probes succeed, uncertified: {uncertified}")


def test_criterion_8a_rounding_ratios():
    import random
    rng = random.Random(88)
    bad = []
    for k in range(4, 65):
        up = scheme(k, Mode.MAXMIN)
        down = scheme(k, Mode.MINMAX)
        values = [Fraction(rng.randint(1, 840), 840) for _ in range(40)]
        values += [Fraction(1), Fraction(1, k)]
        for v in values:
            rv_up, _ = round_one(v, up)
            rv_down, _ = round_one(v, down)
            if not 1 <= rv_up / v < 1 + Fraction(1, k):
                bad.append((k, str(v), "up"))
            if not Fraction(k, k + 1) < rv_down / v <= 1:
                bad.append((k, str(v), "down"))
    report("8a", not bad,
           f"per-item rounding ratios lie in [1, 1+1/k) up and (k/(k+1), 1] "
           f"down for k in 4..64; bad: {bad}")


def test_criterion_8b_category_growth_bound():
    """C is the least integer with (1+1/k)^C >= k, and C <= k ceil(log2 k).

    Both checked in exact arithmetic for k in 4..64.  The grid
    (1/k)(1+1/k)^tau must reach 1, which fixes C; since (1+1/k)^k >= 2,
    k * ceil(log2 k) steps always suffice, so C = O(k log k).  At k = 4,
    C = 7 <= 8; at k = 64, C = 269 <= 384.
    """
    offenders = []
    for k in range(4, 65):
        c = scheme(k, Mode.MAXMIN).C
        ratio = Fraction(k + 1, k)
        minimal = ratio ** (c - 1) < k <= ratio ** c
        # (k - 1).bit_length() == ceil(log2 k) for k >= 2
        if not (minimal and c <= k * (k - 1).bit_length()):
            offenders.append((k, c))
    report("8b", not offenders,
           f"category count is the least C with (1+1/k)^C >= k and stays "
           f"within k*ceil(log2 k) for k in 4..64; offenders: {offenders}")


def test_criterion_9_determinism(tmp_path, e1, m1, capsys):
    from convalloc.instance_model import dump_instance
    inst_path = tmp_path / "m1.json"
    dump_instance(m1, str(inst_path))
    outputs = []
    for run in ("a", "b"):
        res = tmp_path / f"res_{run}.json"
        tr = tmp_path / f"trace_{run}.txt"
        code = cli_main(["solve", "-k", "8", "-i", str(inst_path), "--json",
                         "-o", str(res), "--trace", str(tr)])
        capsys.readouterr()
        outputs.append((code, res.read_bytes(), tr.read_bytes()))
    gen_a = tmp_path / "gen_a.json"
    gen_b = tmp_path / "gen_b.json"
    cli_main(["gen", "--seed", "11", "-n", "4", "-m", "10", "-o", str(gen_a)])
    cli_main(["gen", "--seed", "11", "-n", "4", "-m", "10", "-o", str(gen_b)])
    capsys.readouterr()
    ok = outputs[0] == outputs[1] and gen_a.read_bytes() == gen_b.read_bytes()
    report("9", ok, "identical seeds and flags reproduce result JSON, trace "
                    "files, and generated instances byte for byte")
