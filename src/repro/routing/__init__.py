"""Routing algorithms: optimal star-graph routing, star-emulation routing
for super Cayley networks, and fault-tolerant routing.  Exact distances
beyond the compiled range come from :mod:`repro.frontier`
(``identity_distance`` / ``pair_distance``)."""

from .star_routing import (
    star_distance,
    star_distance_array,
    star_distance_between,
    star_eccentricity,
    star_route,
    star_route_to_identity,
    star_route_to_identity_randomized,
)
from .sc_routing import (
    expand_star_word,
    greedy_bag_route,
    record_route_metrics,
    route_length_bound,
    sc_route,
    simplify_word,
    walk_route,
)
from .rotator_routing import (
    insertion_transposition_word,
    rotator_emulation_dilation,
    rotator_family_route,
    rotator_star_dimension_word,
)
from .fault_tolerant import (
    FaultSet,
    RoutingError,
    disjoint_paths,
    fault_tolerant_route,
    node_connectivity,
    route_is_fault_free,
    survives_faults,
    valiant_route,
)

__all__ = [
    "star_route_to_identity",
    "star_route_to_identity_randomized",
    "star_route",
    "star_distance",
    "star_distance_array",
    "star_distance_between",
    "star_eccentricity",
    "expand_star_word",
    "simplify_word",
    "sc_route",
    "greedy_bag_route",
    "route_length_bound",
    "record_route_metrics",
    "walk_route",
    "FaultSet",
    "RoutingError",
    "fault_tolerant_route",
    "route_is_fault_free",
    "valiant_route",
    "disjoint_paths",
    "node_connectivity",
    "survives_faults",
    "insertion_transposition_word",
    "rotator_star_dimension_word",
    "rotator_emulation_dilation",
    "rotator_family_route",
]
