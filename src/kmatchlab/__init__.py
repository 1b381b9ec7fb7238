"""Exact-arithmetic lab for auditing a claimed fast k-matching counting formula.

The package pairs a candidate fast evaluator (a coefficient-expansion formula
over vertex degrees) with transparent brute-force oracles, and provides a
harness that checks every step of the formula's derivation chain on concrete
small instances, recording exact match/mismatch verdicts.
"""

from ._version import __version__
from .errors import CapacityError, Graph6ParseError
from .graph import Graph, from_edge_list, generate, parse_graph6
from .fastcount import CountResult, FastCountOptions, fast_count
from .harness import ClaimId, VerificationRecord, VerificationReport, verify_claim

__all__ = [
    "CapacityError",
    "Graph6ParseError",
    "Graph",
    "from_edge_list",
    "generate",
    "parse_graph6",
    "CountResult",
    "FastCountOptions",
    "fast_count",
    "ClaimId",
    "VerificationRecord",
    "VerificationReport",
    "verify_claim",
]
