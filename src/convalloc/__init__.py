"""Approximation schemes for ordered Max-Min and Min-Max allocation.

The library models inclusion-free convex bipartite instances exactly
(rational arithmetic throughout), checks the generalized Hall condition,
rounds values onto a geometric grid, aligns assignments to the right, runs
the configuration-vector dynamic program behind a binary search over the
guess, and ships an exhaustive oracle plus a seeded instance generator for
verification at desk scale.
"""

from .alignment import (AlignmentError, align, assignment_vector,
                        is_non_wasteful, is_right_aligned)
from .dp_engine import DPTable, backward, forward, retrieve, solve_rounded
from .generator import gen_inclusion_free, gen_planted
from .hall import HallWitness, hall_violations
from .instance_model import (Agent, Assignment, ConvexInstance, Item, Mode,
                             ValidationReport, Violation,
                             assignment_from_positions, dump_instance,
                             format_value, instance_from_dict, instance_to_dict,
                             lexicographic_order, load_instance, parse_value,
                             stranded_items, validate)
from .oracle import OracleSizeError, opt_maxmin, opt_minmax
from .rounding import (InputVector, RoundedInstance, RoundingScheme, input_vector,
                       round_instance, scheme)
from .solver import (SolveError, SolveResult, VerifyReport, decide, scale,
                     solve_maxmin, solve_minmax, verify)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
