"""End-to-end certification: route a group, and when it is eligible
build both derivations, lift them, and certify a noninner automorphism
of order p.

The construction guarantees that of the two lifted automorphisms
(`b_shift`: a -> a, b -> bw; `a_shift`: a -> aw, b -> b) at least one is
noninner.  The pipeline tests `b_shift` first by exhaustive search over
conjugation candidates; when that map turns out inner it falls back to
`a_shift`, and if that one is inner too it raises TheoremViolationError,
which indicates a bug somewhere in the tower rather than a property of
the input group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

from .cocycles import (
    derivation_from_a_exponent,
    derivation_from_b_exponent,
    lift_to_automorphism,
    verify_cocycles,
)
from .eligibility import Route, decide_route, select_generators, select_n
from .errors import CertificationError, TheoremViolationError
from .maps import (
    find_conjugating_element,
    fixes_elementwise,
    inner_search_size,
    is_central_map,
    map_order,
    verify_automorphism,
)
from .pcgroup import PcGroup, PcPresentation
from .structure import coclass, nilpotency_class


@dataclass
class CertReport:
    """Everything the certificate emitters serialize.  `certificates`
    describes the chosen map; `chosen` is `b_shift` or `a_shift`."""

    group_id: str
    p: int
    m: int
    order: int
    nilpotency_class: int
    coclass: int
    route: str
    citations: tuple[str, ...]
    context: Optional[dict]
    chosen: Optional[str]
    images: Optional[list]
    certificates: Optional[dict]
    timings: dict


def certify_group(
    source: Union[PcGroup, PcPresentation], group_id: str = "group"
) -> CertReport:
    group = source if isinstance(source, PcGroup) else PcGroup(source)
    timings: dict = {}
    t0 = time.perf_counter()
    decision = decide_route(group)
    cls = nilpotency_class(group)
    timings["route"] = time.perf_counter() - t0
    base = dict(
        group_id=group_id,
        p=group.p,
        m=group.ngens,
        order=group.element_count,
        nilpotency_class=cls,
        coclass=group.ngens - cls,
        route=decision.route.value,
        citations=decision.citations,
    )
    if decision.route != Route.ELIGIBLE:
        return CertReport(
            **base,
            context=None,
            chosen=None,
            images=None,
            certificates=None,
            timings=timings,
        )

    t0 = time.perf_counter()
    n_sub = select_n(group)
    ctx = select_generators(group, n_sub)
    timings["selection"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    deriv_b = derivation_from_b_exponent(ctx)
    deriv_a = derivation_from_a_exponent(ctx)
    counterexamples = verify_cocycles([deriv_b, deriv_a])
    for name, counterexample in zip(("b_shift", "a_shift"), counterexamples):
        if counterexample is not None:
            raise CertificationError(
                f"{name} derivation failed cocycle verification at cosets of "
                f"{group.vec(counterexample[0])} and {group.vec(counterexample[1])}"
            )
    timings["derivations"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    map_b = lift_to_automorphism(deriv_b)
    map_a = lift_to_automorphism(deriv_a)
    for name, f in (("b_shift", map_b), ("a_shift", map_a)):
        reason = verify_automorphism(f)
        if reason is not None:
            raise CertificationError(f"{name} lift is not an automorphism: {reason}")
        order = map_order(f)
        if order != group.p:
            raise CertificationError(f"{name} lift has order {order}, expected {group.p}")
        if is_central_map(f):
            raise CertificationError(f"{name} lift is a central automorphism")
    timings["verify"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    witness_b = find_conjugating_element(map_b)
    a_inner: Optional[bool]
    if witness_b is None:
        chosen, chosen_map = "b_shift", map_b
        fixed_name, fixed_sub = "FRATTINI", ctx.phi
        b_inner, a_inner = False, None
    else:
        b_inner = True
        witness_a = find_conjugating_element(map_a)
        if witness_a is not None:
            raise TheoremViolationError(
                "both lifted automorphisms are inner (witnesses "
                f"{group.vec(witness_b)} and {group.vec(witness_a)}); the construction "
                "guarantees this cannot happen"
            )
        a_inner = False
        chosen, chosen_map = "a_shift", map_a
        fixed_name, fixed_sub = "Z_M_MINUS_4", ctx.z_deep
    if not fixes_elementwise(chosen_map, fixed_sub):
        raise CertificationError(
            f"{chosen} does not fix {fixed_name} elementwise as it must"
        )
    timings["inner_search"] = time.perf_counter() - t0

    certificates = {
        "is_automorphism": True,
        "order": group.p,
        "noncentral": True,
        "noninner": True,
        "inner_search_size": inner_search_size(group),
        "fixed_subgroup": fixed_name,
        "cocycle_verified": True,
        "b_shift_inner": b_inner,
        "a_shift_inner": a_inner,
    }
    return CertReport(
        **base,
        context=ctx.summary(),
        chosen=chosen,
        images=[list(group.vec(int(i))) for i in chosen_map.image_indices],
        certificates=certificates,
        timings=timings,
    )
