"""Certified noninner automorphisms of order p for finite p-groups.

The package ingests weighted power-commutator presentations, decides a
structural eligibility route, and for eligible groups constructs two
explicit automorphisms of order p together with machine-checked
certificates that at least one of them is noninner.
"""

from .errors import (
    CertificationError,
    InconsistentPresentationError,
    OrderBoundError,
    PcpSyntaxError,
    PresentationError,
    SelectionError,
    StructureError,
    TheoremViolationError,
)
from .certify import CertReport, certify_group
from .eligibility import Route, RouteDecision, decide_route, select_generators, select_n
from .pcgroup import PcGroup, PcPresentation
from .pcpfile import PcpDocument, parse_pcp, parse_pcp_file, serialize_pcp
from .report import report_to_dict, report_to_json, report_to_text

__all__ = [
    "PcPresentation",
    "PcGroup",
    "PcpDocument",
    "parse_pcp",
    "parse_pcp_file",
    "serialize_pcp",
    "Route",
    "RouteDecision",
    "decide_route",
    "select_n",
    "select_generators",
    "CertReport",
    "certify_group",
    "report_to_dict",
    "report_to_json",
    "report_to_text",
    "PresentationError",
    "CertificationError",
    "InconsistentPresentationError",
    "OrderBoundError",
    "PcpSyntaxError",
    "SelectionError",
    "StructureError",
    "TheoremViolationError",
]

__version__ = "0.1.0"
