"""Instance model for ordered resource-allocation problems.

An instance is a bipartite graph between an ordered list of items (jobs) and a
set of agents (players or machines), where each agent is interested in a
consecutive interval of items.  Instances are *inclusion-free*: no agent's
interval is strictly contained in another's without sharing an endpoint.  All
values are exact rationals; no floating point enters any decision path.

Item and agent indices are 1-based throughout, matching the on-disk JSON
format.
"""

from __future__ import annotations

import json
import os
import re
import sys
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union


def integer_values(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(weights, D): the values as integer numerators over one common
    denominator D, the lcm of their denominators.

    Each value is a ``Fraction`` or an int.  Sums and comparisons then run
    on integers; a ``Fraction`` sum reduces by a gcd at every addition.
    ``ConvexInstance.integers`` keeps this view of the values of an
    instance built in code.  A loaded instance holds the same view, built
    by ``instance_from_dict`` from the pairs it reads, with no ``Fraction``.
    """
    ratios = [v.as_integer_ratio() for v in values]
    denom = lcm(*{d for _, d in ratios})
    return tuple([n * (denom // d) for n, d in ratios]), denom


class Mode(Enum):
    MAXMIN = "maxmin"
    MINMAX = "minmax"


# A decimal exponent, as in '1e-9'; Fraction reads '_' as a digit separator.
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


def parse_value(text: Union[str, int]) -> Fraction:
    """Parse an exact rational from its text, or from an integer's.

    The text is anything ``Fraction`` reads: 'num/den', an integer, a
    decimal or an exponent, as in '-3/4', '25', '0.1' or '25e-2'.
    ``instance_from_dict`` reads the two forms ``format_value`` writes
    itself and every other value through this.

    Raises ValueError on anything else, a zero denominator included, and on
    a decimal exponent that, with the text's length, reaches Python's limit
    on printed digits: ``Fraction`` would build a value nobody can print.
    """
    text = str(text)
    exponent = _EXPONENT.search(text)
    if exponent:
        limit = _digit_limit()
        if limit and len(text) + abs(int(exponent.group(1))) >= limit:
            raise ValueError(f"value {text!r} has too many digits to print (limit {limit})")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"value {text!r} has a zero denominator") from None


def _digit_limit() -> int:
    """Python's limit on the digits of a printed integer; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def format_value(value: Fraction) -> str:
    """Render an exact rational as 'num/den' (or 'num' when integral)."""
    return str(value)


class Item(NamedTuple):
    id: str
    value: Fraction


class Agent(NamedTuple):
    id: str
    lo: int
    hi: int
    demand: Fraction = Fraction(1)

    def covers(self, pos: int) -> bool:
        return self.lo <= pos <= self.hi


class ConvexInstance:
    """A validated-or-not ordered instance of either allocation problem.

    ``items`` are listed in the fixed item order; ``agents[i]`` is interested
    in items ``agents[i].lo .. agents[i].hi`` (inclusive, 1-based).  In MINMAX
    mode items play the role of jobs and agents the role of machines, and the
    per-agent ``demand`` doubles as the machine's allowable load for the
    feasibility checks.

    ``integers`` is the instance's integer view ``(weights, D)``: the item
    values as integer numerators over one common denominator D, built by
    ``integer_values`` on first use, or by ``instance_from_dict`` at load,
    and kept, so that validation, the Hall bounds, the search bracket,
    scaling, rounding and verification read the same integers.
    ``item_ids`` is the item ids in item order, which everything that names
    or counts items reads in place of ``items``.
    ``lex`` is its agent view ``(order, lows, highs)``: the agent indices in
    lexicographic (lo, hi) order and their endpoints in that order.  ``ids``
    is its id view ``({item id: position}, {agent id: index})``; the first
    occurrence of a repeated id wins.  ``nested`` holds the lex ranks
    (0-based) whose high falls below the highest high of the ranks before,
    each an interval strictly inside an earlier one: it is empty exactly
    when the instance is inclusion-free, the one test of that shape that
    validation, the Hall sweeps, the DP and ``align`` read.

    ``spread`` is (min, max, gcd) of the integer view's weights and
    ``prefix`` their prefix sums, from 0: the search, the Hall sweeps and
    the DP on an all-small guess read them, each built once per instance.

    Two kinds of instance hold ``item_ids`` and ``integers`` but no
    ``items``, and build their ``Item``s only when ``items`` is first read,
    which no step of a solve does: those ``instance_from_dict`` (and so
    ``load_instance``) loads, and those ``with_integers`` derives from an
    integer view, as ``solver.scale`` does for a clamped guess and
    ``rounding.round_instance`` for a guess with a big item.  A third kind
    holds its weights unbuilt too: ``scaled_by`` derives it as its source's
    weights times one factor, and keeps that as its ``scaling``, with its
    ``spread`` read off the source's; its ``integers`` and ``prefix`` are
    built on first read.  ``solver.scale`` derives one for every guess at
    which nothing is clamped, and ``rounding.round_instance`` for a guess at
    which every value is small, and no step of an all-small decide builds
    its weights.  ``scaling`` is None on every other instance.  A derived
    instance carries its source's ``lex``, ``ids`` and ``nested`` too, so a
    solve sorts and tests its agents once.  Equality, hashing and ``repr``
    read ``items`` and so build them.

    It is a plain class, not a frozen dataclass, and the records here are
    NamedTuples: importing ``dataclasses`` imports ``inspect`` and with it
    ``ast``, ``dis`` and ``tokenize``, and each decoration compiles its
    methods at import, which together would double the time of ``import
    convalloc``.  Its fields ``mode``, ``items`` and ``agents`` live in
    ``__dict__`` beside the cached views; equality holds only between two
    instances, and assigning or deleting any attribute raises
    ``AttributeError``.
    """

    mode: Mode
    items: tuple[Item, ...]
    agents: tuple[Agent, ...]

    # Not a field: an instance that ``scaled_by`` derives holds its own.
    scaling = None

    def __init__(self, mode: Mode, items: tuple[Item, ...], agents: tuple[Agent, ...]) -> None:
        vars(self).update(mode=mode, items=items, agents=agents)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.mode, self.items, self.agents) == (other.mode, other.items, other.agents)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.mode, self.items, self.agents))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(mode={self.mode!r}, items={self.items!r}, "
                f"agents={self.agents!r})")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def m(self) -> int:
        return len(self.item_ids)

    @property
    def n(self) -> int:
        return len(self.agents)

    def value_at(self, pos: int) -> Fraction:
        return self.items[pos - 1].value

    @cached_property
    def item_ids(self) -> tuple[str, ...]:
        return tuple([it.id for it in self.items])

    @cached_property
    def integers(self) -> tuple[tuple[int, ...], int]:
        scaling = self.scaling
        if scaling is not None:
            source, num, den, denom = scaling
            return tuple([w * num // den for w in source.integers[0]]), denom
        return integer_values([it.value for it in self.items])

    @cached_property
    def spread(self) -> tuple[int, int, int]:
        weights = self.integers[0]
        return (min(weights), max(weights), gcd(*weights)) if weights else (0, 0, 0)

    @cached_property
    def prefix(self) -> tuple[int, ...]:
        return tuple(accumulate(self.integers[0], initial=0))

    @cached_property
    def lex(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        # sorted is stable: agents with equal intervals keep their input order
        spans = [(a.lo, a.hi) for a in self.agents]
        order = tuple(sorted(range(self.n), key=spans.__getitem__))
        return order, tuple([spans[i][0] for i in order]), tuple([spans[i][1] for i in order])

    @cached_property
    def nested(self) -> tuple[int, ...]:
        highs = self.lex[2]
        tops = list(accumulate(highs, max))  # tops[r]: the highest high of ranks 0..r
        return tuple([r for r in range(1, self.n) if highs[r] < tops[r - 1]])

    @cached_property
    def ids(self) -> tuple[dict[str, int], dict[str, int]]:
        # built from the back, so that the first occurrence of an id wins
        return (dict(zip(reversed(self.item_ids), range(self.m, 0, -1))),
                dict(zip(reversed([a.id for a in self.agents]), range(self.n - 1, -1, -1))))

    def __getattr__(self, name: str):
        # Reached only when ordinary lookup fails, which for ``items`` means
        # an instance that holds its item ids and integer view alone: its
        # items are built here, once.
        if name != "items" or "item_ids" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        weights, denom = self.integers
        values = [Fraction(w, denom) for w in weights]
        items = tuple(map(Item, self.item_ids, values))
        vars(self)["items"] = items
        return items

    def total_value(self) -> Fraction:
        weights, denom = self.integers
        return Fraction(sum(weights), denom)

    def item_index(self, item_id: str) -> int:
        return self.ids[0][item_id]


class Scaling(NamedTuple):
    """The weights of an instance ``scaled_by`` derives: ``w * num // den``
    for each weight w of ``source``, which holds its own, over ``denom``."""
    source: ConvexInstance
    num: int
    den: int
    denom: int


def _unbuilt(mode: Mode, agents: tuple[Agent, ...], item_ids: tuple[str, ...],
             **views) -> ConvexInstance:
    """An instance of ``item_ids`` whose ``items`` are built on first read,
    with ``views`` as its cached views: ``integers``, or a ``scaling``."""
    out = object.__new__(ConvexInstance)
    # its fields live in __dict__ like its cached views, and __init__ is skipped
    vars(out).update(mode=mode, agents=agents, item_ids=item_ids, **views)
    return out


def with_integers(source: ConvexInstance,
                  integers: tuple[tuple[int, ...], int]) -> ConvexInstance:
    """``source`` with the values ``weights[i] / D`` for ``integers ==
    (weights, D)``, D a common denominator but not always the least one.

    The result has ``source``'s mode, agents, ``item_ids``, ``lex``, ``ids``
    and ``nested``, and ``integers`` as its integer view.  It builds no
    ``Item`` until its ``items`` is read.  ``scaled_by`` derives an instance
    that holds its weights unbuilt too, when they are ``source``'s times
    one factor.
    """
    return _unbuilt(source.mode, source.agents, source.item_ids, integers=integers,
                    lex=source.lex, ids=source.ids, nested=source.nested)


def scaled_by(source: ConvexInstance, num: int, den: int, denom: int) -> ConvexInstance:
    """``source`` with the values ``(w * num // den) / denom`` for each
    weight w of its integer view; den must divide every ``w * num``.

    The result has ``source``'s mode, agents, ``item_ids``, ``lex``, ``ids``
    and ``nested``, and its ``spread`` is read off ``source``'s, so it is
    built in O(1) once ``source`` has a ``spread``.  Its ``scaling`` names
    an instance that holds its own weights: a ``source`` derived this way
    is replaced by its own source, the two factors multiplied.  Its
    ``integers``, ``prefix`` and ``items`` are built on first read.
    """
    scaling = source.scaling
    if scaling is not None:
        source, num, den = scaling.source, num * scaling.num, den * scaling.den
    divisor = gcd(num, den)
    num, den = num // divisor, den // divisor
    low, high, common = source.spread
    return _unbuilt(source.mode, source.agents, source.item_ids,
                    scaling=Scaling(source, num, den, denom),
                    spread=(low * num // den, high * num // den, common * num // den),
                    lex=source.lex, ids=source.ids, nested=source.nested)


class Violation(NamedTuple):
    code: str
    subjects: tuple[str, ...]
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(instance: ConvexInstance) -> ValidationReport:
    """Check all structural invariants; violations are data, not failures.

    Checks: positive values and demands, interval bounds, unique ids, no
    degree-0 items, inclusion-freeness (after the lexicographic sort of
    agents, right endpoints must be non-decreasing), and a common
    denominator of the values short enough to print under Python's limit
    on integer digits.
    """
    out: list[Violation] = []
    item_ids, agents = instance.item_ids, instance.agents
    m = len(item_ids)
    weights, denom = instance.integers
    # The id view names the first occurrence of each id; any other is a
    # duplicate.  An item can be at fault only if some id repeats or some
    # value is not positive, so the per-item loop runs only then.
    item_pos, agent_index = instance.ids
    if len(item_pos) < m or min(weights, default=1) <= 0:
        for pos, (x, w) in enumerate(zip(item_ids, weights), start=1):
            if item_pos[x] != pos:
                out.append(Violation("duplicate-id", (x,), f"duplicate item id {x!r}"))
            if w <= 0:
                out.append(Violation("nonpositive-value", (x,),
                                     f"item {x!r} has value {Fraction(w, denom)} <= 0"))
    for i, a in enumerate(agents):
        if agent_index[a.id] != i:
            out.append(Violation("duplicate-id", (a.id,), f"duplicate agent id {a.id!r}"))
        if not (1 <= a.lo <= a.hi <= m):
            out.append(Violation("bad-interval", (a.id,),
                                 f"agent {a.id!r} interval [{a.lo},{a.hi}] not within [1,{m}]"))
        if a.demand.numerator <= 0:  # a Fraction's denominator is positive
            out.append(Violation("nonpositive-demand", (a.id,),
                                 f"agent {a.id!r} has demand {a.demand} <= 0"))

    # Coverage by one sweep over the intervals in lexicographic order, each
    # clipped to [1, m], so that a bad interval still covers the positions it
    # overlaps.  Clipping keeps the lows in order, so the positions past the
    # highest high so far and before the next low lie in no interval.
    order, lows, highs = instance.lex
    covered = 0  # positions 1..covered lie in some interval
    for lo, hi in zip(lows, highs):
        if hi > m:
            hi = m
        # a clipped interval that reaches past covered is nonempty iff lo <= hi
        if covered < hi >= lo:
            if lo > covered + 1:
                out.extend(_uncovered(item_ids, covered + 1, lo))
            covered = hi
    out.extend(_uncovered(item_ids, covered + 1, m + 1))

    # Inclusion-freeness: each lex rank whose high falls below the highest
    # high before it lies strictly inside the first agent holding that high.
    for r in instance.nested:
        top = max(range(r), key=highs.__getitem__)
        p, q = agents[order[top]], agents[order[r]]
        out.append(Violation("margined-inclusion", (p.id, q.id),
                             f"margined inclusion ({p.id},{q.id}): "
                             f"[{q.lo},{q.hi}] strictly inside [{p.lo},{p.hi}]"))

    # A common denominator D of more than ``limit`` digits cannot be
    # printed; 8**limit < 10**limit skips the power for every shorter D.
    # This looks at D only: a result's numerator is not bounded, so the
    # CLI still guards each value it prints.
    limit = _digit_limit()
    if limit and denom.bit_length() > 3 * limit and denom >= 10 ** limit:
        out.append(Violation("unprintable-denominator", (),
                             f"the item values' common denominator has more than {limit} "
                             "digits, too many to print"))

    return ValidationReport(tuple(out))


def _uncovered(item_ids: Sequence[str], start: int, stop: int) -> Iterator[Violation]:
    """A ``degree-zero-item`` violation for each position start..stop-1."""
    for pos in range(start, stop):
        item_id = item_ids[pos - 1]
        yield Violation("degree-zero-item", (item_id,),
                        f"item {item_id!r} (position {pos}) lies in no agent interval")


def lexicographic_order(instance: ConvexInstance) -> tuple[int, ...]:
    """Agent indices sorted by (lo, hi); ties keep input order (stable)."""
    return instance.lex[0]


def stranded_items(instance: ConvexInstance, items: Iterable[int], j: int) -> frozenset[int]:
    """Positions in ``items`` that no agent of the lex-prefix p_1..p_j covers."""
    if not 0 <= j <= instance.n:
        raise ValueError(f"agent count {j} out of range 0..{instance.n}")
    agents = [instance.agents[i] for i in instance.lex[0][:j]]
    return frozenset(pos for pos in items if not any(a.covers(pos) for a in agents))


class Assignment(NamedTuple):
    """A partition of the items into per-agent bundles.

    Bundles are stored as (agent id, item ids) pairs in instance agent order;
    item ids within a bundle follow the item order.  Empty bundles are kept
    explicitly so the pairing always covers every agent.
    """

    mode: Mode
    bundles: tuple[tuple[str, tuple[str, ...]], ...]

    def bundle_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.bundles)

    def positions(self, instance: ConvexInstance) -> dict[int, tuple[int, ...]]:
        """Bundles as item positions keyed by agent index into instance.agents."""
        pos_of, agent_of = instance.ids
        return {agent_of[aid]: tuple(sorted(pos_of[x] for x in ids))
                for aid, ids in self.bundles}


def assignment_from_positions(instance: ConvexInstance,
                              by_agent: Mapping[int, Iterable[int]]) -> Assignment:
    """Build an Assignment from {agent index: item positions}.

    It reads item ids only, so it builds no items of an unbuilt instance.
    """
    item_ids = instance.item_ids
    return Assignment(instance.mode, tuple(
        (a.id, tuple([item_ids[p - 1] for p in sorted(by_agent.get(i, ()))]))
        for i, a in enumerate(instance.agents)))


def partition_violations(instance: ConvexInstance, assignment: "Assignment",
                         require_cover: bool = True) -> list[str]:
    """Structural problems of an assignment against an instance.

    Checks bundle ownership (known agents, one bundle per agent, known
    items, no double assignment), interval membership, and, when
    ``require_cover`` is set, that every item is assigned.
    """
    return _partition_pass(instance, assignment, require_cover)[0]


def _partition_pass(instance: ConvexInstance, assignment: "Assignment", require_cover: bool
                    ) -> tuple[list[str], list[int], Collection[int]]:
    """One pass over the items of every bundle: (the problems
    ``partition_violations`` reports, in its order; each bundle's weight on
    the integer view, summed over its known items, an unknown agent's
    bundle included; the positions some bundle holds)."""
    out: list[str] = []
    pos_of, index_of = instance.ids
    agents = instance.agents
    weight = (0, *instance.integers[0])  # by 1-based position
    owner: dict[int, str] = {}  # item position -> the id of the agent holding it
    owners: set[int] = set()
    stray: set[int] = set()  # the known items of unknown agents' bundles
    totals: list[int] = []
    for aid, ids in assignment.bundles:
        i = index_of.get(aid)
        if i is None:
            out.append(f"unknown agent {aid!r}")
            positions = [pos_of[x] for x in ids if x in pos_of]
            stray.update(positions)
            totals.append(sum([weight[p] for p in positions]))
            continue
        if i in owners:
            out.append(f"agent {aid!r} has more than one bundle")
        owners.add(i)
        lo, hi = agents[i].lo, agents[i].hi
        total = 0
        for x in ids:
            pos = pos_of.get(x)
            if pos is None:
                out.append(f"unknown item {x!r} in bundle of {aid!r}")
                continue
            total += weight[pos]
            if pos in owner:
                out.append(f"item {x!r} assigned to both {owner[pos]!r} and {aid!r}")
            owner[pos] = aid
            if not lo <= pos <= hi:
                out.append(f"item {x!r} (position {pos}) outside interval "
                           f"[{lo},{hi}] of agent {aid!r}")
        totals.append(total)
    # owners holds indices of the id view: it names every agent iff it is as long
    if len(owners) < len(index_of):
        out.extend(f"agent {a.id!r} has no bundle" for a in agents
                   if index_of[a.id] not in owners)
    # owner holds first positions of ids: every item is assigned iff it holds m
    if require_cover and len(owner) < len(weight) - 1:
        out.extend(f"item {x!r} is unassigned" for x in instance.item_ids
                   if pos_of[x] not in owner)
    return out, totals, owner.keys() | stray if stray else owner.keys()


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def instance_to_dict(instance: ConvexInstance) -> dict:
    agents = []
    for a in instance.agents:
        entry = {"id": a.id, "l": a.lo, "r": a.hi}
        if a.demand != 1:
            entry["demand"] = format_value(a.demand)
        agents.append(entry)
    return {
        "mode": instance.mode.value,
        "items": [{"id": it.id, "value": format_value(it.value)} for it in instance.items],
        "agents": agents,
    }


def instance_from_dict(data: Mapping) -> ConvexInstance:
    """Build an instance from its JSON form, in one pass over its records.

    Each item is read to its id and its value's ``(numerator, denominator)``
    pair.  A value in one of the two forms ``format_value`` writes, a string
    of ASCII digits or of ASCII digits '/' ASCII digits with a nonzero
    denominator, is read inline by ``int`` and not reduced; ``int`` reads
    the same parts in the same order as ``Fraction``, so a part past
    Python's digit limit raises the same error.  Every other value goes
    through ``parse_value``.  The instance holds the ``item_ids`` and the
    integer view that ``_lowest_view`` builds from those pairs, the one
    ``integer_values`` builds from the lowest-terms values; it builds its
    ``Item``s only when ``items`` is read.  An absent ``demand`` is the
    default 1.

    Malformed input raises ValueError; a missing key and an id that is not a
    string are named with their place, as in ``item 2: missing key
    'value'``.  The records are checked to be objects first, then read in
    order: every item value before any item id is checked for type, the
    items before the agents, and each agent's id, ``l``, ``r`` and
    ``demand`` in that order.
    """
    # a JSON object decodes to a dict, which passes the Mapping check
    if type(data) is not dict and not isinstance(data, Mapping):
        raise ValueError(f"an instance must be a JSON object, got {type(data).__name__}")
    for key in ("mode", "items", "agents"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    try:
        mode = _MODES[data["mode"]]
    except (KeyError, TypeError):  # TypeError: an unhashable mode
        mode = Mode(data["mode"])  # raises the Enum's own ValueError
    records = _records(data, "items")
    item_ids: list = []
    nums: list[int] = []
    dens: list[int] = []
    try:
        for record in records:
            item_ids.append(record["id"])
            value = record["value"]
            if type(value) is str and value.isascii():
                if value.isdigit():  # str.isdigit alone takes '²' and '٣'
                    nums.append(int(value))
                    dens.append(1)
                    continue
                num, _, den = value.partition("/")
                if num.isdigit() and den.isdigit() and den.strip("0"):
                    nums.append(int(num))
                    dens.append(int(den))
                    continue
            num, den = parse_value(value).as_integer_ratio()
            nums.append(num)
            dens.append(den)
    except KeyError as exc:
        raise _missing_key("item", records, exc) from None
    _string_ids("item", item_ids)
    records = _records(data, "agents")
    agents: list[Agent] = []
    try:
        for record in records:
            agent_id, lo = record["id"], record["l"]
            if type(lo) is not int:
                lo = _position(record, "l")
            hi = record["r"]
            if type(hi) is not int:
                hi = _position(record, "r")
            if "demand" in record:
                agents.append(Agent(agent_id, lo, hi, parse_value(record["demand"])))
            else:
                agents.append(Agent(agent_id, lo, hi))
    except KeyError as exc:
        raise _missing_key("agent", records, exc) from None
    _string_ids("agent", [a.id for a in agents])
    return _unbuilt(mode, tuple(agents), tuple(item_ids), integers=_lowest_view(nums, dens))


_MODES = {mode.value: mode for mode in Mode}


def _lowest_view(nums: list[int], dens: list[int]) -> tuple[tuple[int, ...], int]:
    """The integer view of the values ``nums[i] / dens[i]``, each
    denominator positive: the one ``integer_values`` builds from their
    lowest terms, with no gcd per value.

    Over D' = lcm(dens), w_i = nums[i] D' / dens[i]; with g = gcd(D', w_1,
    ..., w_m) the view is (w_i / g, D' / g), and D' / g is L, the least
    common denominator.  Proof: g = (D' / L) h with h = gcd(L, a_i L / b_i)
    over the reduced values a_i / b_i, and h = 1, since for each prime p
    with p^e || L some reduced value a/b has p^e || b and a L / b prime to p.
    """
    denom = lcm(*dens)
    weights = [n * (denom // d) for n, d in zip(nums, dens)]
    common = gcd(denom, *weights)
    if common == 1:
        return tuple(weights), denom
    return tuple([w // common for w in weights]), denom // common


def _string_ids(kind: str, ids: Sequence[object]) -> None:
    """Refuse the first id that is not a JSON string; ``type`` and not
    ``isinstance``, since a JSON number decodes to a ``str`` subclass."""
    for place, x in enumerate(ids, start=1):
        if type(x) is not str:
            raise ValueError(f"{kind} {place}: 'id' must be a string, got {x!r}")


def _missing_key(kind: str, records: list[dict], exc: KeyError) -> ValueError:
    """The error for the first record that lacks the key ``exc`` names."""
    key = exc.args[0]
    place = next(i for i, d in enumerate(records, start=1) if key not in d)
    return ValueError(f"{kind} {place}: missing key {key!r}")


def _records(data: Mapping, key: str) -> list[dict]:
    records = data[key]
    # JSON objects decode to dicts; a dict check is a fraction of the cost of
    # a Mapping check, which adds up over the items of a large corpus.
    if not isinstance(records, list) or not all(isinstance(d, dict) for d in records):
        raise ValueError(f"{key!r} must be a list of objects")
    return records


def _position(agent: Mapping, key: str) -> int:
    pos = agent[key]
    if isinstance(pos, bool) or not isinstance(pos, int):
        raise ValueError(f"agent {agent.get('id')!r}: {key!r} must be an integer, got {pos!r}")
    return pos


def dump_instance(instance: ConvexInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=False)
        fh.write("\n")


class _JSONNumber(str):
    """A JSON number's text, which ``parse_value`` reads exactly; a float rounds."""

    def __repr__(self) -> str:
        return str(self)


# One decoder for every load, as ``json.load`` shares its default one; building
# a decoder per call slows every load of a large corpus.
_DECODER = json.JSONDecoder(parse_float=_JSONNumber)


def load_instance(path: str) -> ConvexInstance:
    """Load an instance file through ``instance_from_dict``.

    The file's bytes are read by ``os.read`` on one descriptor and decoded
    as UTF-8: that makes fewer system calls than a file object, which looks
    up the file's size and position before it reads.  A '\\r\\n' or a lone
    '\\r' then becomes '\\n', as a text-mode read translates them; the text
    is searched for a '\\r' once and copied only when it holds one.  So the
    text, and every error with its offsets, is the one
    ``open(path, encoding="utf-8").read()`` gives, the ``IsADirectoryError``
    that names a directory included.
    """
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = [os.read(fd, _CHUNK)]
        while chunks[-1]:
            chunks.append(os.read(fd, _CHUNK))
    except IsADirectoryError as exc:  # os.open opens a directory; open() refuses it
        raise IsADirectoryError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    text = b"".join(chunks).decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return instance_from_dict(_DECODER.decode(text))


# O_BINARY: no newline translation by the C runtime where it has one (Windows).
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
# Under the usual 128 KiB threshold at which malloc maps fresh memory.
_CHUNK = 1 << 16
