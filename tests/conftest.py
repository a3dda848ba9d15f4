"""Shared fixtures: the four canonical instances used across the suite.

T0: one agent, one unit item.
T1: four items (0.6, 0.5, 0.5, 0.6) and two overlapping agents; both
    objectives have optimum 11/10.
E1: 21 items (six squares of value 1/4, fifteen circles of value 1/10) under
    three properly overlapping agents; Max-Min optimum exactly 1.
M1: the scheduling twin of T1 (two machines, four jobs); optimum makespan
    11/10.
"""

from fractions import Fraction

import pytest

from convalloc import Agent, Assignment, ConvexInstance, Item, Mode, round_instance

E1_LAYOUT = [
    ("s1", "sq"), ("s2", "sq"), ("c1", "c"), ("c2", "c"), ("c3", "c"),
    ("c4", "c"), ("c5", "c"), ("c6", "c"), ("s3", "sq"), ("c7", "c"),
    ("c8", "c"), ("s4", "sq"), ("c9", "c"), ("c10", "c"), ("s5", "sq"),
    ("c11", "c"), ("s6", "sq"), ("c12", "c"), ("c13", "c"), ("c14", "c"),
    ("c15", "c"),
]


def with_demands(inst, demands):
    """``inst`` with agent i's demand (Max-Min) or allowed load (Min-Max)
    set to ``demands[i]``: the Hall checks read them from the agents."""
    agents = tuple(a._replace(demand=d) for a, d in zip(inst.agents, demands, strict=True))
    return ConvexInstance(inst.mode, inst.items, agents)


def round_one(value, sch):
    """(rounded value, category) of ``value`` alone under the scheme
    ``sch``: ``round_instance`` on a one-item instance, the path a solve
    runs."""
    inst = ConvexInstance(sch.mode, (Item("x1", value),), (Agent("p1", 1, 1),))
    rounded = round_instance(inst, sch)
    return rounded.value_at(1), rounded.category[0]


@pytest.fixture
def t0():
    return ConvexInstance(Mode.MAXMIN, (Item("x1", Fraction(1)),),
                          (Agent("p1", 1, 1),))


@pytest.fixture
def t1():
    values = [Fraction(3, 5), Fraction(1, 2), Fraction(1, 2), Fraction(3, 5)]
    items = tuple(Item(f"x{i}", v) for i, v in enumerate(values, start=1))
    return ConvexInstance(Mode.MAXMIN, items,
                          (Agent("p1", 1, 3), Agent("p2", 2, 4)))


@pytest.fixture
def e1():
    items = tuple(Item(name, Fraction(1, 4) if kind == "sq" else Fraction(1, 10))
                  for name, kind in E1_LAYOUT)
    agents = (Agent("p1", 1, 7), Agent("p2", 3, 14), Agent("p3", 8, 21))
    return ConvexInstance(Mode.MAXMIN, items, agents)


@pytest.fixture
def m1():
    values = [Fraction(3, 5), Fraction(1, 2), Fraction(1, 2), Fraction(3, 5)]
    items = tuple(Item(f"j{i}", v) for i, v in enumerate(values, start=1))
    return ConvexInstance(Mode.MINMAX, items,
                          (Agent("M1", 1, 3), Agent("M2", 2, 4)))


@pytest.fixture
def e1_assignment_1():
    """Every agent takes the rightmost five circles and two squares she sees;
    all three bundles are worth exactly 1."""
    return Assignment(Mode.MAXMIN, (
        ("p1", ("s1", "s2", "c1", "c2", "c3", "c4", "c5")),
        ("p2", ("c6", "s3", "c7", "c8", "s4", "c9", "c10")),
        ("p3", ("s5", "c11", "s6", "c12", "c13", "c14", "c15")),
    ))


@pytest.fixture
def e1_assignment_2():
    """The last agent hoards her four squares, the middle takes all circles
    she sees, and the first is left with half a unit (the five rightmost
    circles end up unassigned)."""
    return Assignment(Mode.MAXMIN, (
        ("p1", ("s1", "s2")),
        ("p2", ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10")),
        ("p3", ("s3", "s4", "s5", "s6")),
    ))
