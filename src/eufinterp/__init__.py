"""Ground interpolation for the theory of equality.

Library surface: parse a two-sided literal problem, run proof-producing
congruence closure, repair and color the resulting graph, and extract a
Horn-clause interpolant; an independent oracle rechecks every result.  The
``game`` module generalizes the extraction to local refutations in arbitrary
theories.
"""

from .coloring import Strategy
from .core import ParseError, parse_problem
from .interpolate import NotUnsatisfiableError, format_conjunction, interpolate
from .verify import check_interpolant

__all__ = [
    "NotUnsatisfiableError",
    "ParseError",
    "Strategy",
    "check_interpolant",
    "format_conjunction",
    "interpolate",
    "parse_problem",
]
