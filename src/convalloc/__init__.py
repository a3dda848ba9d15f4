"""Approximation schemes for ordered Max-Min and Min-Max allocation.

The library models inclusion-free convex bipartite instances exactly
(rational arithmetic throughout), checks the generalized Hall condition,
rounds values onto a geometric grid, aligns assignments to the right, runs
the configuration-vector dynamic program behind a binary search over the
guess, and ships an exhaustive oracle plus a seeded instance generator for
verification at desk scale.

``import convalloc`` loads the instance model alone.  Every other name, a
submodule such as ``convalloc.solver`` included, imports its module on first
use (PEP 562) and is then bound here like an eager import's name.
"""

from importlib import import_module as _import_module

from .instance_model import (Agent, Assignment, ConvexInstance, Item, Mode,
                             ValidationReport, Violation,
                             assignment_from_positions, dump_instance,
                             format_value, instance_from_dict, instance_to_dict,
                             lexicographic_order, load_instance, parse_value,
                             stranded_items, validate)

# Each submodule loaded on first use, with the names it exports.
_LAZY = {
    "alignment": ("AlignmentError", "align", "assignment_vector", "is_non_wasteful",
                  "is_right_aligned"),
    "dp_engine": ("DPTable", "backward", "forward", "retrieve", "solve_rounded"),
    "generator": ("gen_inclusion_free", "gen_planted"),
    "hall": ("HallWitness", "hall_violations"),
    "oracle": ("OracleSizeError", "opt_maxmin", "opt_minmax"),
    "rounding": ("InputVector", "RoundedInstance", "RoundingScheme", "input_vector",
                 "round_instance", "scheme"),
    "solver": ("SolveError", "SolveResult", "VerifyReport", "decide", "scale",
               "solve_maxmin", "solve_minmax", "verify"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

# The public names bound by the import above, then each submodule and its names.
__all__ = sorted({*(name for name in globals() if not name.startswith("_")),
                  *_LAZY, *_MODULE_OF})
__version__ = "0.1.0"


def __getattr__(name: str):
    # Called only for a name not yet bound here.  The import lock serializes
    # the first imports, so threads that race on a name bind the same object.
    if name in _LAZY:
        value = _import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
