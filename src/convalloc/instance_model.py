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
import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence, Union


def integer_values(values: Sequence[Fraction], base: int = 1) -> tuple[list[int], int]:
    """(numerators, D): the values as integers over one common denominator
    D, the lcm of their denominators and ``base``.

    Sums and comparisons then run on integers; a ``Fraction`` sum reduces by
    a gcd at every addition.
    """
    ratios = [v.as_integer_ratio() for v in values]
    denom = lcm(base, *{d for _, d in ratios})
    return [n * (denom // d) for n, d in ratios], denom


class Mode(Enum):
    MAXMIN = "maxmin"
    MINMAX = "minmax"


Value = Fraction

# A decimal exponent, as in '1e-9'; Fraction reads '_' as a digit separator.
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


def parse_value(text: Union[str, int]) -> Fraction:
    """Parse an exact rational from a 'num/den' or integer string.

    Raises ValueError on anything else, a zero denominator included, and on
    a decimal exponent that, with the text's length, reaches Python's limit
    on printed digits: ``Fraction`` would build a value nobody can print.
    """
    text = str(text)
    exponent = _EXPONENT.search(text)
    if exponent:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if limit and len(text) + abs(int(exponent.group(1))) >= limit:
            raise ValueError(f"value {text!r} has too many digits to print (limit {limit})")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"value {text!r} has a zero denominator") from None


def format_value(value: Fraction) -> str:
    """Render an exact rational as 'num/den' (or 'num' when integral)."""
    return str(value)


@dataclass(frozen=True)
class Item:
    id: str
    value: Fraction


@dataclass(frozen=True)
class Agent:
    id: str
    lo: int
    hi: int
    demand: Fraction = Fraction(1)

    def covers(self, pos: int) -> bool:
        return self.lo <= pos <= self.hi


@dataclass(frozen=True)
class ConvexInstance:
    """A validated-or-not ordered instance of either allocation problem.

    ``items`` are listed in the fixed item order; ``agents[i]`` is interested
    in items ``agents[i].lo .. agents[i].hi`` (inclusive, 1-based).  In MINMAX
    mode items play the role of jobs and agents the role of machines, and the
    per-agent ``demand`` doubles as the machine's allowable load for the
    feasibility checks.
    """

    mode: Mode
    items: tuple[Item, ...]
    agents: tuple[Agent, ...]

    @property
    def m(self) -> int:
        return len(self.items)

    @property
    def n(self) -> int:
        return len(self.agents)

    def value_at(self, pos: int) -> Fraction:
        return self.items[pos - 1].value

    def total_value(self) -> Fraction:
        weights, denom = integer_values([it.value for it in self.items])
        return Fraction(sum(weights), denom)

    def item_index(self, item_id: str) -> int:
        for pos, it in enumerate(self.items, start=1):
            if it.id == item_id:
                return pos
        raise KeyError(item_id)


@dataclass(frozen=True)
class Violation:
    code: str
    subjects: tuple[str, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(instance: ConvexInstance) -> ValidationReport:
    """Check all structural invariants; violations are data, not failures.

    Checks: positive values and demands, interval bounds, unique ids, no
    degree-0 items, and inclusion-freeness (after the lexicographic sort of
    agents, right endpoints must be non-decreasing).
    """
    out: list[Violation] = []
    m = instance.m

    seen: set[str] = set()
    for it in instance.items:
        if it.id in seen:
            out.append(Violation("duplicate-id", (it.id,), f"duplicate item id {it.id!r}"))
        seen.add(it.id)
        if it.value <= 0:
            out.append(Violation("nonpositive-value", (it.id,),
                                 f"item {it.id!r} has value {it.value} <= 0"))
    seen = set()
    for a in instance.agents:
        if a.id in seen:
            out.append(Violation("duplicate-id", (a.id,), f"duplicate agent id {a.id!r}"))
        seen.add(a.id)
        if not (1 <= a.lo <= a.hi <= m):
            out.append(Violation("bad-interval", (a.id,),
                                 f"agent {a.id!r} interval [{a.lo},{a.hi}] not within [1,{m}]"))
        if a.demand <= 0:
            out.append(Violation("nonpositive-demand", (a.id,),
                                 f"agent {a.id!r} has demand {a.demand} <= 0"))

    # Coverage counts by one difference-array sweep, each interval clipped to
    # [1, m], so that a bad interval still covers the positions it overlaps.
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

    # Inclusion-freeness: in lexicographic (lo, hi) order the hi endpoints
    # must be non-decreasing; a decrease exhibits a margined inclusion.
    order = lexicographic_order(instance)
    for k in range(1, len(order)):
        p = instance.agents[order[k - 1]]
        q = instance.agents[order[k]]
        if q.hi < p.hi:
            out.append(Violation("margined-inclusion", (p.id, q.id),
                                 f"margined inclusion ({p.id},{q.id}): "
                                 f"[{q.lo},{q.hi}] strictly inside [{p.lo},{p.hi}]"))

    return ValidationReport(tuple(out))


def lexicographic_order(instance: ConvexInstance) -> tuple[int, ...]:
    """Agent indices sorted by (lo, hi); ties keep input order (stable)."""
    return tuple(sorted(range(instance.n), key=lambda i: (instance.agents[i].lo,
                                                          instance.agents[i].hi)))


def stranded_items(instance: ConvexInstance, items: Iterable[int], j: int) -> frozenset[int]:
    """Positions in ``items`` that no agent of the lex-prefix p_1..p_j covers."""
    if not 0 <= j <= instance.n:
        raise ValueError(f"agent count {j} out of range 0..{instance.n}")
    agents = [instance.agents[i] for i in lexicographic_order(instance)[:j]]
    return frozenset(pos for pos in items if not any(a.covers(pos) for a in agents))


@dataclass(frozen=True)
class Assignment:
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
        pos_of = {it.id: p for p, it in enumerate(instance.items, start=1)}
        agent_of = {a.id: i for i, a in enumerate(instance.agents)}
        return {agent_of[aid]: tuple(sorted(pos_of[x] for x in ids))
                for aid, ids in self.bundles}


def assignment_from_positions(instance: ConvexInstance,
                              by_agent: Mapping[int, Iterable[int]]) -> Assignment:
    """Build an Assignment from {agent index: item positions}."""
    bundles = []
    for i, a in enumerate(instance.agents):
        poss = sorted(by_agent.get(i, ()))
        bundles.append((a.id, tuple(instance.items[p - 1].id for p in poss)))
    return Assignment(instance.mode, tuple(bundles))


def partition_violations(instance: ConvexInstance, assignment: "Assignment",
                         require_cover: bool = True) -> list[str]:
    """Structural problems of an assignment against an instance.

    Checks bundle ownership (known agents, one bundle per agent, known
    items, no double assignment), interval membership, and, when
    ``require_cover`` is set, that every item is assigned.
    """
    out: list[str] = []
    agent_by_id = {a.id: a for a in instance.agents}
    pos_of = {it.id: p for p, it in enumerate(instance.items, start=1)}
    seen: dict[str, str] = {}
    owners: set[str] = set()
    for aid, ids in assignment.bundles:
        agent = agent_by_id.get(aid)
        if agent is None:
            out.append(f"unknown agent {aid!r}")
            continue
        if aid in owners:
            out.append(f"agent {aid!r} has more than one bundle")
        owners.add(aid)
        for x in ids:
            pos = pos_of.get(x)
            if pos is None:
                out.append(f"unknown item {x!r} in bundle of {aid!r}")
                continue
            if x in seen:
                out.append(f"item {x!r} assigned to both {seen[x]!r} and {aid!r}")
            seen[x] = aid
            if not agent.covers(pos):
                out.append(f"item {x!r} (position {pos}) outside interval "
                           f"[{agent.lo},{agent.hi}] of agent {aid!r}")
    out.extend(f"agent {a.id!r} has no bundle" for a in instance.agents if a.id not in owners)
    if require_cover:
        for it in instance.items:
            if it.id not in seen:
                out.append(f"item {it.id!r} is unassigned")
    return out


def coverage_ranges(instance: ConvexInstance) -> tuple[tuple[int, int], ...]:
    """For each item position, the (first, last) lex-rank of covering agents.

    On a validated instance the covering agents of any item form a contiguous
    range of lex ranks (1-based); (0, -1) marks an uncovered item.
    """
    order = lexicographic_order(instance)
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
    """Build an instance from its JSON form.

    Malformed input raises ValueError; a missing key is named with its place,
    as in ``item 2: missing key 'value'``.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"an instance must be a JSON object, got {type(data).__name__}")
    for key in ("mode", "items", "agents"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    mode = Mode(data["mode"])
    records = _records(data, "items")
    try:
        items = tuple(Item(str(d["id"]), parse_value(d["value"])) for d in records)
    except KeyError as exc:
        raise _missing_key("item", records, exc) from None
    records = _records(data, "agents")
    try:
        agents = tuple(Agent(str(d["id"]), _position(d, "l"), _position(d, "r"),
                             parse_value(d.get("demand", "1")))
                       for d in records)
    except KeyError as exc:
        raise _missing_key("agent", records, exc) from None
    return ConvexInstance(mode, items, agents)


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
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(_DECODER.decode(fh.read()))
