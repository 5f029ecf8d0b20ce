"""Memory-bounded frontier BFS over Cayley/super-Cayley graphs.

The compiled engine (:mod:`repro.core.compiled`) materialises all
``k!`` nodes before any analysis runs, which walls the paper's sweeps
at ``k <= 9``.  This package explores the same graphs **without a node
table**: encoded uint8 state matrices, batched per-generator expansion,
dedup against a ``k!``-bit visited map over Lehmer-rank keys (or a
window of sorted keys when the map does not fit), a byte budget that
sizes the batches and the spill threshold and picks the visited set,
and crash-resumable spill-to-disk frontiers.  Layer profiles, contents
and discovery order are byte-identical to the compiled BFS (same
tie-breaks); pair distances come from meet-in-the-middle bidirectional
search, whose two balls run the profile's batch step.

Entry points: :class:`FrontierBFS` / :func:`frontier_profile` for the
identity-rooted layer profile, :func:`identity_distance` /
:func:`pair_distance` for point queries, and
:class:`~repro.frontier.spill.FrontierRunDir` for the run-dir
machinery behind ``--spill-dir`` / ``--resume``.
"""

from .bidirectional import identity_distance, pair_distance
from .encoding import (
    MAX_EXACT_KEY_K,
    expand_states,
    generator_columns,
    identity_state,
    inverse_generator_columns,
    make_key_fn,
)
from .engine import DEFAULT_MEMORY_BUDGET, FrontierBFS, FrontierResult
from .spill import FrontierRunDir, SpillError


def frontier_profile(graph, **kwargs) -> FrontierResult:
    """One-shot identity-rooted frontier BFS (see :class:`FrontierBFS`)."""
    return FrontierBFS(graph, **kwargs).run()


__all__ = [
    "MAX_EXACT_KEY_K",
    "DEFAULT_MEMORY_BUDGET",
    "FrontierBFS",
    "FrontierResult",
    "FrontierRunDir",
    "SpillError",
    "expand_states",
    "frontier_profile",
    "generator_columns",
    "identity_distance",
    "identity_state",
    "inverse_generator_columns",
    "make_key_fn",
    "pair_distance",
]
