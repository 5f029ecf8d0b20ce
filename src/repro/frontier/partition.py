"""Key-space ownership for sharded frontier exploration.

The sharded engine (:mod:`repro.frontier.sharded`) hash-partitions the
uint64 *key* space — not the state space — across ``W`` worker
processes: every key has exactly one **owner**, every worker dedups
only keys it owns, and a key's owner never depends on which worker
generated it.  Two properties make owner-computes BFS correct and
stable:

* **ownership is a pure function of the key** — duplicates of a state
  always land on the same worker, so per-owner dedup against the
  owner's own prev∪current window (ring for directed families) is
  exactly as complete as the single-process window;
* **the mix is fixed** — ``owner(key) = ((key * PHI64) >> (64 - b))
  % W`` with ``b = log2_ceil(W)``, a Fibonacci/multiplicative hash
  whose multiplier never varies with ``W`` or any seed.  The seeded
  part of key construction lives entirely in
  :func:`~repro.frontier.encoding.make_key_fn` (and is threaded from
  the coordinator into every worker), so resuming a run or re-running
  with the same ``W`` reproduces the same placement byte-for-byte.

Taking the *top* ``b`` bits of the product (rather than ``key % W``)
keeps the partition balanced even for structured key populations —
Lehmer-rank keys are dense in the low bits — because
multiplying by the odd constant ``PHI64`` diffuses every input bit
into the high output bits.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: 2^64 / golden ratio, forced odd — the classic Fibonacci-hash
#: multiplier.  Fixed forever: ownership must not depend on seeds.
PHI64 = np.uint64(0x9E3779B97F4A7C15)


def log2_ceil(n: int) -> int:
    """Smallest ``b`` with ``2**b >= n`` (``0`` for ``n <= 1``)."""
    if n <= 1:
        return 0
    return int(n - 1).bit_length()


def owner_of(keys: np.ndarray, num_workers: int) -> np.ndarray:
    """The owning worker index of every key, as an int64 array.

    ``W = 1`` maps everything to worker 0 without touching the keys
    (a 64-bit shift would be undefined).  For larger ``W`` the key is
    mixed by :data:`PHI64` and the top ``log2_ceil(W)`` bits select a
    slot in the padded power-of-two range, folded onto ``0..W-1`` by a
    final modulo — at most a 2:1 imbalance for non-power-of-two ``W``,
    eliminated entirely when ``W`` is a power of two.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    keys = np.asarray(keys, dtype=np.uint64)
    if num_workers == 1:
        return np.zeros(keys.shape, dtype=np.int64)
    bits = log2_ceil(num_workers)
    mixed = keys * PHI64  # uint64 arithmetic wraps mod 2^64
    slots = (mixed >> np.uint64(64 - bits)).astype(np.int64)
    return slots % num_workers


def partition_by_owner(
    keys: np.ndarray, num_workers: int
) -> Tuple[List[np.ndarray], np.ndarray]:
    """One vectorized bucket pass: per-owner row indices.

    Returns ``(buckets, owners)`` where ``buckets[w]`` holds the row
    indices owned by worker ``w`` in their original relative order
    (stable, so first-occurrence dedup downstream keeps the generation
    order within each owner), and ``owners`` is the full per-row owner
    array for accounting.  Cost is one ``argsort`` over the candidate
    batch — no per-worker scan.
    """
    owners = owner_of(keys, num_workers)
    if num_workers == 1:
        return [np.arange(keys.shape[0], dtype=np.int64)], owners
    order = np.argsort(owners, kind="stable")
    counts = np.bincount(owners, minlength=num_workers)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    buckets = [
        order[bounds[w]:bounds[w + 1]] for w in range(num_workers)
    ]
    return buckets, owners
