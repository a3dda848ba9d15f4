"""Slow, obviously-correct references that the tests check the package against.

``check_hall_bruteforce`` enumerates subsets for the generalized Hall
condition, and ``coverage_ranges`` lists each item's covering agents by
lexicographic rank; the interval sweeps of ``convalloc.hall`` must agree with
both on small instances.  ``first_aligned_cuts`` enumerates every sequence of
small-item cuts that ``convalloc.align`` could take; ``align`` must take the
first one that passes.

The per-item loops that the one-pass layers replaced are kept here as they
were, and the package's reports and tables must equal theirs:
``reference_partition_violations`` and ``reference_verify`` check and value
an assignment item by item through ``Agent.covers``; ``reference_validate``
runs the per-item duplicate and sign loop on every instance and counts
coverage by a difference array over the positions;
``reference_integer_scale`` is ``solver.scale`` as it was before a guess at which
nothing clamps took a view: it builds the scaled weight tuple on every call.
``reference_round_instance`` classifies every value by ``_categories``, small
or not, and builds the rounded weight tuple too; the
two are the materialized path that the all-small views must read back.
``reference_workspace_tables`` builds the ``_Workspace`` tables
one agent and one unit of nu_0 at a time, from ``positions`` grouped by a
loop over the categories.

``reference_search`` is the binary search as it was before the bracket was
built only on a failed first guess: it builds the bracket and tests the
halving loop on every solve, and ``reference_guarantee`` derives the
certified factor through its ``Fraction`` operations.  ``solve_maxmin`` and
``solve_minmax`` must return the same results and trace lines.

``reference_maximal`` is the pairwise cut the Max-Min rows had before the
bitset cut: it compares each mark with every kept one.
``reference_minimal`` is its mirror image for Min-Max.  ``dp_engine._cut``
must keep the same marks in the same order.  ``reference_maxmin_rows`` is
the Max-Min row loop as it was before each box yielded only its frontier: it
tests every candidate of each predecessor's box in lexicographic order and
cuts each complete row by ``reference_maximal``.  ``_mark_rows`` must yield
the same rows, marks, pointers, carried weights and small lengths.
``reference_minmax_rows`` is the Min-Max row loop as it was before the rows
were cut: the same box scan, on nu_0 alone too, with every mark kept.  Cut
to its minimal marks, each of its rows must be the row ``_mark_rows``
yields, pointers included, and ``backward`` must read the same assignment
off both tables.

``reference_parse_value`` reads every text through ``Fraction(text)`` behind
the exponent guard, with no fast path for digits; ``parse_value`` must give
the same value or raise the same ``ValueError`` message.
``reference_instance_from_dict`` is the eager loader, which builds an
``Item`` and its ``Fraction`` for every value; ``instance_from_dict`` must
give an equal instance, with equal views, or raise the same error.
"""

import operator
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, filterfalse, product
from math import ceil, floor, gcd, lcm
from operator import ge, getitem, le
from typing import Iterator, Mapping, Optional, Union

from convalloc import Agent, Assignment, ConvexInstance, Item, Mode, assignment_vector
from convalloc.dp_engine import BUNDLE_MARGIN, _Workspace
from convalloc.hall import hall_bound
from convalloc.instance_model import (ValidationReport, Violation, _digit_limit, _missing_key,
                                      _position, _records, with_integers)
from convalloc.rounding import RoundedInstance, RoundingScheme, _categories, small_units
from convalloc.solver import (SolveError, SolveResult, VerifyReport, _fallback_partition,
                              _require_valid, decide, verify)

BRUTE_FORCE_LIMIT = 20


def coverage_ranges(instance: ConvexInstance) -> tuple[tuple[int, int], ...]:
    """For each item position, the (first, last) lex-rank of covering agents.

    On a validated instance the covering agents of any item form a contiguous
    range of lex ranks (1-based); (0, -1) marks an uncovered item.
    """
    order = instance.lex[0]
    out = []
    for pos in range(1, instance.m + 1):
        ranks = [r + 1 for r, i in enumerate(order) if instance.agents[i].covers(pos)]
        if not ranks:
            out.append((0, -1))
        elif ranks == list(range(ranks[0], ranks[-1] + 1)):
            out.append((ranks[0], ranks[-1]))
        else:
            raise ValueError(f"covering agents of item position {pos} are not contiguous "
                             "in the lexicographic order (instance is not inclusion-free)")
    return tuple(out)


def check_hall_bruteforce(instance: ConvexInstance) -> Optional[tuple[str, ...]]:
    """Subset-enumeration oracle for the interval checks.

    Max-Min: enumerates agent subsets, smallest first, and returns the ids of
    the first subset whose neighbourhood value falls short of its demand.
    Min-Max: enumerates job subsets against the allowable loads of their
    machine neighbourhood.  Returns None when the condition holds everywhere.
    """
    if instance.mode is Mode.MAXMIN:
        if instance.n > BRUTE_FORCE_LIMIT:
            raise ValueError(f"brute-force Hall check limited to {BRUTE_FORCE_LIMIT} agents")
        for size in range(1, instance.n + 1):
            for subset in combinations(range(instance.n), size):
                covered: set[int] = set()
                for i in subset:
                    covered.update(range(instance.agents[i].lo, instance.agents[i].hi + 1))
                value = sum((instance.value_at(p) for p in covered), Fraction(0))
                demand = sum((instance.agents[i].demand for i in subset), Fraction(0))
                if value < demand:
                    return tuple(instance.agents[i].id for i in subset)
        return None

    if instance.m > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force Hall check limited to {BRUTE_FORCE_LIMIT} jobs")
    ranges = coverage_ranges(instance)
    loads_by_rank = [instance.agents[i].demand for i in instance.lex[0]]
    for size in range(1, instance.m + 1):
        for subset in combinations(range(1, instance.m + 1), size):
            machines: set[int] = set()
            for pos in subset:
                first, last = ranges[pos - 1]
                machines.update(range(first, last + 1))
            work = sum((instance.value_at(p) for p in subset), Fraction(0))
            allowed = sum((loads_by_rank[r - 1] for r in machines), Fraction(0))
            if work > allowed:
                return tuple(instance.items[p - 1].id for p in subset)
    return None


def first_aligned_cuts(rounded: RoundedInstance,
                       assignment: Assignment) -> Optional[list[list[int]]]:
    """The small bundles, by lex rank (0-based), of the first cut sequence
    that passes, or None when none does.

    Big items are dealt by the prefix rule off the input's assignment
    vector; None if a block leaves its agent's interval.  The small
    positions are dealt from the last lex rank down: each agent takes a
    suffix of the small positions still left.  Every sequence of cuts is
    enumerated, each agent's cut tried shortest suffix first for Max-Min and
    longest first for Min-Max.  A sequence passes when, for every agent, the
    bundle lies in its interval, the agents below it cover every small
    position left, and two tests hold: the bundle's rounded value is above
    1 - 1/k (Max-Min) or below 1 + 1/k (Min-Max), and the small mass left is
    in the 1/k bracket of the input's remainder.
    """
    inst, sch = rounded.instance, rounded.scheme
    maxmin = inst.mode is Mode.MAXMIN
    agents = [inst.agents[i] for i in inst.lex[0]]
    n, k = inst.n, sch.k
    vectors = (sch.zero_vector(),) + assignment_vector(rounded, assignment)
    by_coordinate = rounded.positions()
    big = [[p for c in range(1, sch.C + 1)
            for p in by_coordinate[c][vectors[j][c]:vectors[j + 1][c]]] for j in range(n)]
    if any(not agents[j].covers(p) for j in range(n) for p in big[j]):
        return None
    small = by_coordinate[0]

    @cache
    def passes(j: int, cut: int, end: int) -> bool:
        bundle, left = small[cut:end], small[:cut]
        if not all(agents[j].covers(p) for p in bundle):
            return False
        if not all(any(a.covers(p) for a in agents[:j]) for p in left):
            return False
        value = sum((rounded.value_at(p) for p in bundle + big[j]), Fraction(0))
        mass = k * sum((rounded.value_at(p) for p in left), Fraction(0))
        if maxmin:
            return value > 1 - Fraction(1, k) and ceil(mass) == vectors[j][0]
        return value < 1 + Fraction(1, k) and floor(mass) == vectors[j][0]

    cuts = range(len(small), -1, -1) if maxmin else range(len(small) + 1)
    for sequence in product(cuts, repeat=n):  # lex ranks n..1
        ends = (len(small),) + sequence
        if all(cut <= end and passes(n - 1 - i, cut, end)
               for i, (cut, end) in enumerate(zip(sequence, ends))):
            return [small[sequence[n - 1 - j]:ends[n - 1 - j]] for j in range(n)]
    return None


def reference_partition_violations(instance: ConvexInstance, assignment: Assignment,
                                   require_cover: bool = True) -> list[str]:
    """Bundle ownership, interval membership and cover, item by item."""
    out: list[str] = []
    pos_of, index_of = instance.ids
    owner: dict[int, str] = {}
    owners: set[int] = set()
    for aid, ids in assignment.bundles:
        i = index_of.get(aid)
        if i is None:
            out.append(f"unknown agent {aid!r}")
            continue
        if i in owners:
            out.append(f"agent {aid!r} has more than one bundle")
        owners.add(i)
        agent = instance.agents[i]
        for x in ids:
            pos = pos_of.get(x)
            if pos is None:
                out.append(f"unknown item {x!r} in bundle of {aid!r}")
                continue
            if pos in owner:
                out.append(f"item {x!r} assigned to both {owner[pos]!r} and {aid!r}")
            owner[pos] = aid
            if not agent.covers(pos):
                out.append(f"item {x!r} (position {pos}) outside interval "
                           f"[{agent.lo},{agent.hi}] of agent {aid!r}")
    out.extend(f"agent {a.id!r} has no bundle" for a in instance.agents
               if index_of[a.id] not in owners)
    if require_cover:
        out.extend(f"item {it.id!r} is unassigned" for it in instance.items
                   if pos_of[it.id] not in owner)
    return out


def reference_verify(instance: ConvexInstance, assignment: Assignment) -> VerifyReport:
    """``reference_partition_violations``, then the ids mapped again, each
    bundle summed, and every item scanned for ``unassigned``."""
    require_cover = instance.mode is Mode.MINMAX
    violations = tuple(reference_partition_violations(instance, assignment, require_cover))
    weights, denom = instance.integers
    pos_of = instance.ids[0]
    bundles = [[pos_of[x] for x in ids if x in pos_of] for _, ids in assignment.bundles]
    totals = [sum(weights[p - 1] for p in positions) for positions in bundles]
    assigned = {p for positions in bundles for p in positions}
    unassigned = tuple(it.id for it in instance.items if pos_of[it.id] not in assigned)
    pick = min if instance.mode is Mode.MAXMIN else max
    values = tuple((aid, Fraction(total, denom))
                   for (aid, _), total in zip(assignment.bundles, totals))
    return VerifyReport(not violations, violations, values,
                        Fraction(pick(totals, default=0), denom), unassigned)


def reference_validate(instance: ConvexInstance) -> ValidationReport:
    """Every check of ``validate``, the item loop run on every instance and
    coverage counted position by position."""
    out: list[Violation] = []
    m = instance.m
    weights, denom = instance.integers
    item_pos, agent_index = instance.ids
    for pos, (it, w) in enumerate(zip(instance.items, weights), start=1):
        if item_pos[it.id] != pos:
            out.append(Violation("duplicate-id", (it.id,), f"duplicate item id {it.id!r}"))
        if w <= 0:
            out.append(Violation("nonpositive-value", (it.id,),
                                 f"item {it.id!r} has value {it.value} <= 0"))
    for i, a in enumerate(instance.agents):
        if agent_index[a.id] != i:
            out.append(Violation("duplicate-id", (a.id,), f"duplicate agent id {a.id!r}"))
        if not (1 <= a.lo <= a.hi <= m):
            out.append(Violation("bad-interval", (a.id,),
                                 f"agent {a.id!r} interval [{a.lo},{a.hi}] not within [1,{m}]"))
        if a.demand <= 0:
            out.append(Violation("nonpositive-demand", (a.id,),
                                 f"agent {a.id!r} has demand {a.demand} <= 0"))
    delta = [0] * (m + 2)
    for a in instance.agents:
        lo, hi = max(a.lo, 1), min(a.hi, m)
        if lo <= hi:
            delta[lo] += 1
            delta[hi + 1] -= 1
    cover = 0
    for pos in range(1, m + 1):
        cover += delta[pos]
        if not cover:
            out.append(Violation("degree-zero-item", (instance.items[pos - 1].id,),
                                 f"item {instance.items[pos - 1].id!r} (position {pos}) "
                                 "lies in no agent interval"))
    order, _, highs = instance.lex
    for r in instance.nested:
        top = max(range(r), key=highs.__getitem__)
        p, q = instance.agents[order[top]], instance.agents[order[r]]
        out.append(Violation("margined-inclusion", (p.id, q.id),
                             f"margined inclusion ({p.id},{q.id}): "
                             f"[{q.lo},{q.hi}] strictly inside [{p.lo},{p.hi}]"))
    limit = _digit_limit()
    if limit and denom.bit_length() > 3 * limit and denom >= 10 ** limit:
        out.append(Violation("unprintable-denominator", (),
                             f"the item values' common denominator has more than {limit} "
                             "digits, too many to print"))
    return ValidationReport(tuple(out))


def reference_integer_scale(instance: ConvexInstance, t: Fraction) -> Optional[ConvexInstance]:
    """``solver.scale`` building the scaled weights (w t_den over D t_num)
    on every guess: clamped to D t_num (Max-Min), or None when some weight
    exceeds it (Min-Max)."""
    weights, denom = instance.integers
    denom, t_den = denom * t.numerator, t.denominator
    scaled = tuple([w * t_den for w in weights])
    if max(scaled, default=0) > denom:
        if instance.mode is Mode.MINMAX:
            return None
        scaled = tuple([min(w, denom) for w in scaled])
    return with_integers(instance, (scaled, denom))


def reference_round_instance(instance: ConvexInstance, sch: RoundingScheme) -> RoundedInstance:
    """``round_instance`` with every value classified by ``_categories``."""
    weights, denom = instance.integers
    cats = _categories(weights, denom, sch)
    k, small = sch.k, denom // sch.k
    top = max(cats, default=0)
    common = lcm(denom, sch.ratios[top][1])
    lift = common // denom
    on_grid = [common // b * a for a, b in sch.ratios[:top + 1]]
    rounded = [w * lift if w <= small else on_grid[c] for w, c in zip(weights, cats)]
    cut = common // lcm(k, common // gcd(common, *rounded))
    if cut > 1:
        common //= cut
        rounded = [w // cut for w in rounded]
    return RoundedInstance(with_integers(instance, (tuple(rounded), common)), sch, tuple(cats))


def reference_workspace_tables(rounded: RoundedInstance) -> dict:
    """The tables ``_Workspace`` builds, by name: positions grouped by a loop
    over the categories, ``reach`` and ``left_of`` one tuple per agent, and
    ``small_len`` one bisection per unit of nu_0."""
    inst, sch = rounded.instance, rounded.scheme
    weights, denom = inst.integers
    _, lows, highs = inst.lex
    lift = sch.k // gcd(denom, sch.k)
    denom *= lift
    unit = denom // sch.k
    weight = [0, *(w * lift for w in weights)]
    positions: list[list[int]] = [[] for _ in range(sch.C + 1)]
    for p, c in enumerate(rounded.category, start=1):
        positions[c].append(p)
    active = tuple(c for c, ps in enumerate(positions) if c == 0 or ps)
    active_positions = [positions[c] for c in active]
    prefix_weight = [list(accumulate((weight[p] for p in ps), initial=0))
                     for ps in active_positions]
    small_prefix = prefix_weight[0]
    nu0 = small_units(small_prefix[-1], denom, sch)
    small_len = [bisect_left(small_prefix, bound) - 1
                 for bound in range(unit, (nu0 + 2) * unit, unit)]
    return {
        "denom": denom, "unit": unit, "weight": weight, "positions": positions,
        "active": active, "prefix_weight": prefix_weight,
        "small_positions": positions[0], "small_prefix": small_prefix,
        "reach": [tuple(bisect_right(ps, hi) for ps in active_positions) for hi in highs],
        "left_of": [tuple(bisect_left(ps, lo) for ps in active_positions) for lo in lows],
        "nu_active": (nu0,) + tuple(len(ps) for ps in active_positions[1:]),
        "small_len": small_len,
        "small_weight": [small_prefix[x] for x in small_len],
    }


def reference_maximal(row: dict) -> dict:
    """The marks of ``row`` whose vectors no other mark of it dominates, in
    ascending lexicographic order.  A vector's dominators sort after it, so
    a walk in descending order meets each of them first, and a vector that
    a dropped one dominates is dominated by a kept one too."""
    kept: list = []
    for nu in sorted(row, reverse=True):
        for top in kept:
            if all(map(le, nu, top)):
                break
        else:
            kept.append(nu)
    return {nu: row[nu] for nu in reversed(kept)}


def reference_minimal(row: dict) -> dict:
    """The marks of ``row`` whose vectors dominate no other mark of it, in
    ascending lexicographic order: ``reference_maximal`` walking the other
    way, since the vectors a vector dominates sort before it."""
    kept: list = []
    for nu in sorted(row):
        for bottom in kept:
            if all(map(ge, nu, bottom)):
                break
        else:
            kept.append(nu)
    return {nu: row[nu] for nu in kept}


def reference_minmax_rows(ws: _Workspace) -> Iterator[dict]:
    """Rows n..1 of a Min-Max DP by the box scan, every row kept whole:
    every unmarked candidate of each predecessor's box tested against the
    value bound, on nu_0 alone as on more coordinates."""
    assert not ws.up
    bound = ws.denom + BUNDLE_MARGIN * ws.unit
    small_len, small_prefix, small_weight = ws.small_len, ws.small_prefix, ws.small_weight
    preds = [(ws.nu_active, sum(ws.weight) - bound, len(ws.small_positions))]
    for j in range(len(ws.order), 1, -1):
        cap = ws.small_cap(j - 1)
        cut = bisect_right(small_len, cap)
        kept = small_len[:cut] + [cap] * (len(small_len) - cut)
        small_table = small_weight[:cut] + [small_prefix[cap]] * (len(small_len) - cut)
        tables = [small_table, *ws.prefix_weight[1:]]
        row: dict = {}
        for nu_prev, limit, before_small in preds:
            box = ws.windows(nu_prev, before_small, j)
            for nu in filterfalse(row.__contains__, product(*box)):
                after = sum(map(getitem, tables, nu))
                if after >= limit:
                    row[nu] = (nu_prev, after, kept[nu[0]])
        yield row
        preds = sorted([(nu, after - bound, length) for nu, (_, after, length) in row.items()])
    first = next((nu_prev for nu_prev, limit, _ in preds if limit <= 0), None)
    yield {} if first is None else {(0,) * len(ws.active): (first, 0, 0)}


def reference_maxmin_rows(ws: _Workspace) -> Iterator[dict]:
    """Rows n..1 of a Max-Min DP by the box scan: every unmarked candidate
    of each predecessor's box tested against the value bound, each complete
    row cut to its maximal vectors."""
    assert ws.up
    bound = ws.denom - BUNDLE_MARGIN * ws.unit
    small_len, small_prefix, small_weight = ws.small_len, ws.small_prefix, ws.small_weight
    preds = [(ws.nu_active, sum(ws.weight) - bound, len(ws.small_positions))]
    for j in range(len(ws.order), 1, -1):
        cap = ws.small_cap(j - 1)
        cut = bisect_right(small_len, cap)
        kept = small_len[:cut] + [cap] * (len(small_len) - cut)
        small_table = small_weight[:cut] + [small_prefix[cap]] * (len(small_len) - cut)
        tables = [small_table, *ws.prefix_weight[1:]]
        row: dict = {}
        for nu_prev, limit, before_small in preds:
            box = ws.windows(nu_prev, before_small, j)
            for nu in filterfalse(row.__contains__, product(*box)):
                after = sum(map(getitem, tables, nu))
                if after <= limit:
                    row[nu] = (nu_prev, after, kept[nu[0]])
        row = reference_maximal(row)
        yield row
        preds = sorted([(nu, after - bound, length) for nu, (_, after, length) in row.items()])
    first = next((nu_prev for nu_prev, limit, _ in preds if limit >= 0), None)
    yield {} if first is None else {(0,) * len(ws.active): (first, 0, 0)}


def reference_guarantee(mode: Mode, k: int, delta: Fraction) -> Fraction:
    """(1 - 4/(k+1)) (1 - delta) for Max-Min, (1 + 4/k + 3/k^2) (1 + delta)
    for Min-Max."""
    if mode is Mode.MAXMIN:
        return (1 - Fraction(4, k + 1)) * (1 - delta)
    return (1 + Fraction(4, k) + Fraction(3, k * k)) * (1 + delta)


def reference_search(instance: ConvexInstance, mode: Mode, k: int,
                     delta: Optional[Fraction] = None,
                     trace: Optional[list[str]] = None) -> SolveResult:
    """The binary search with its bracket built before the first guess."""
    _require_valid(instance, mode)
    k = operator.index(k)
    if k < 4:
        raise ValueError(f"error parameter k must be >= 4, got {k}")
    delta = Fraction(1, 4 * k) if delta is None else Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if instance.n == 0:
        raise SolveError("instance has no agents")
    maxmin = mode is Mode.MAXMIN
    weights, denom = instance.integers
    v_max = Fraction(max(weights), denom)
    bound, opt_positive = hall_bound(instance)
    if not opt_positive:
        assignment = _fallback_partition(instance)
        return SolveResult(mode, k, delta, Fraction(0),
                           verify(instance, assignment).objective, Fraction(0),
                           assignment)
    if maxmin:
        lo, hi = max(Fraction(min(weights), denom), bound - v_max), bound
    else:
        lo, hi = bound, min(instance.total_value(), bound + v_max)

    t_star: Optional[Fraction] = None
    best: Optional[tuple[Fraction, Assignment]] = None

    def succeeds(t: Fraction) -> bool:
        nonlocal t_star, best
        found = decide(instance, t, k, trace)
        if found is None:
            return False
        report = verify(instance, found)
        if not report.feasible:
            raise AssertionError(f"decide returned an infeasible assignment at t={t}: "
                                 f"{report.violations[0]}")
        objective = report.objective
        if best is None or (objective > best[0] if maxmin else objective < best[0]):
            best = (objective, found)
        t_star = t
        return True

    if succeeds(bound):
        lo = hi = bound
    while hi - lo > delta * lo:
        mid = (lo + hi) / 2
        if succeeds(mid) is maxmin:
            lo = mid
        else:
            hi = mid

    if t_star is None and not succeeds(lo if maxmin else hi):
        raise AssertionError("decide failed at a proven bound on the optimum")
    objective, assignment = best
    return SolveResult(mode, k, delta, t_star, objective,
                       reference_guarantee(mode, k, delta), assignment)


def reference_parse_value(text: Union[str, int]) -> Fraction:
    """``Fraction(text)`` for every text, refused as ``parse_value`` refuses
    a zero denominator and an exponent past the digit limit."""
    text = str(text)
    exponent = re.search(r"[eE]([-+]?[0-9_]+)", text)
    if exponent:
        limit = _digit_limit()
        if limit and len(text) + abs(int(exponent.group(1))) >= limit:
            raise ValueError(f"value {text!r} has too many digits to print (limit {limit})")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"value {text!r} has a zero denominator") from None


def reference_instance_from_dict(data: Mapping) -> ConvexInstance:
    """The loader as it was before a loaded instance held its integer view:
    every item's ``Item`` is built from its id and ``reference_parse_value``,
    the values first, then the ids checked for type."""
    if not isinstance(data, Mapping):
        raise ValueError(f"an instance must be a JSON object, got {type(data).__name__}")
    for key in ("mode", "items", "agents"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    mode = Mode(data["mode"])
    records = _records(data, "items")
    try:
        items = tuple([Item(d["id"], reference_parse_value(d["value"])) for d in records])
    except KeyError as exc:
        raise _missing_key("item", records, exc) from None
    _reference_string_ids("item", items)
    records = _records(data, "agents")
    try:
        agents = tuple([_reference_agent(d) for d in records])
    except KeyError as exc:
        raise _missing_key("agent", records, exc) from None
    _reference_string_ids("agent", agents)
    return ConvexInstance(mode, items, agents)


def _reference_agent(record: dict) -> Agent:
    """An agent from its record, built by ``Agent``'s own constructor; an
    absent demand is the default 1."""
    if "demand" in record:
        return Agent(record["id"], _position(record, "l"), _position(record, "r"),
                     reference_parse_value(record["demand"]))
    return Agent(record["id"], _position(record, "l"), _position(record, "r"))


def _reference_string_ids(kind: str, built) -> None:
    for place, obj in enumerate(built, start=1):
        if type(obj.id) is not str:
            raise ValueError(f"{kind} {place}: 'id' must be a string, got {obj.id!r}")
