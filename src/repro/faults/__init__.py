"""Fault injection and resilient routing (``repro.faults``).

The paper grounds its embeddings in fault tolerance (Section 5 targets
the Latifi–Srimani transposition networks for exactly that property),
and Cayley-graph vertex symmetry promises ``degree`` node-disjoint
paths.  This package turns those structural claims into an executable
fault model on top of the compiled core:

* :class:`FaultMask` — vectorized node/link fault state over a
  :class:`~repro.core.compiled.CompiledGraph`'s move tables, with
  masked searches (distances from a source or to a target, reachable
  sets, shortest live routes) that replace the per-call dict BFS of
  :mod:`repro.routing.fault_tolerant` on materialisable graphs;
* :class:`FaultInjector` / :class:`FaultEvent` — deterministic, seeded
  link/node failure (and repair) schedules that fire mid-run inside
  :class:`~repro.comm.simulator.PacketSimulator`, with per-packet
  policies (``drop`` / ``reroute`` / ``retry``) and degraded-delivery
  accounting surfaced through :mod:`repro.obs`.

The object-path routines in :mod:`repro.routing.fault_tolerant` remain
the correctness oracle; ``tests/test_faults.py`` compares the two
differentially across all ten network families.
"""

from .mask import FaultMask
from .injector import FaultEvent, FaultInjector, FaultPolicy

__all__ = [
    "FaultMask",
    "FaultEvent",
    "FaultInjector",
    "FaultPolicy",
]
