"""Deterministic per-(trajectory, mode) noise streams.

Every trajectory/mode pair owns its own counter-based Philox stream, keyed by
(master seed, trajectory index, mode index).  Results therefore do not depend
on chunking, scheduling, or worker count, and runs at different spectral
cutoffs see identical noise on the modes they share.  ``BlockNormals`` is the
one way the step loops read these streams.
"""

from __future__ import annotations

import numpy as np

# Stream namespaces.  Independent consumers of randomness get disjoint kinds
# so that e.g. the scalar reference simulation never reuses field noise.
KIND_FIELD = 0
KIND_ORACLE = 2
KIND_PROBE = 9


def mode_key(k: int) -> int:
    """Fold a signed mode index into a nonnegative key (0,-1,1,-2,2 -> 0,1,2,3,4)."""
    k = int(k)
    return 2 * k if k >= 0 else -2 * k - 1


def mode_stream(master_seed: int, traj_index: int, k: int,
                kind: int = KIND_FIELD) -> np.random.Generator:
    """Generator for the (trajectory, mode) stream of a given master seed."""
    ss = np.random.SeedSequence(
        entropy=int(master_seed),
        spawn_key=(int(kind), int(traj_index), mode_key(k)),
    )
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(master_seed: int, tag: int) -> int:
    """Derive a child 64-bit seed (used for bisection probes and sweeps)."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(KIND_PROBE, int(tag)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# A block holds at most BLOCK_NORMALS normals (64 MB) and BLOCK_STEPS steps,
# so a stopped trajectory wastes at most one block of draws even when few
# streams share the budget.  Steps are served from step-major tiles of
# TILE_STEPS steps copied out of the block.
BLOCK_NORMALS = 8_000_000
BLOCK_STEPS = 1024
TILE_STEPS = 32


class BlockNormals:
    """The normals of per-(trajectory, mode) streams, served one step at a time.

    Stream (i, k) is ``mode_stream(master_seed, traj_indices[i], k, kind)``,
    and step n reads the n-th normal of every kept stream, trajectory-major.
    Normals are drawn a block of steps at a time, never past ``n_steps``, and
    only for the trajectories still kept; each step is then read from a
    contiguous (steps, kept streams) tile of up to TILE_STEPS steps.  A
    stream's values depend on its key alone, so neither the block length nor
    dropping other trajectories changes what a kept trajectory sees.
    """

    def __init__(self, master_seed: int, traj_indices, wavenumbers,
                 n_steps: int, kind: int = KIND_FIELD):
        self._gens = [mode_stream(master_seed, ti, k, kind)
                      for ti in traj_indices for k in wavenumbers]
        self._n_modes = len(wavenumbers)
        self._n_steps = n_steps
        self._block = min(n_steps, BLOCK_STEPS,
                          max(16, BLOCK_NORMALS // max(1, len(self._gens))))
        self._store = np.empty(0)
        self._raw = None      # (streams, steps) of the current block
        self._rows = None     # rows of the block still served; None for all
        self._lo = self._hi = 0
        self._tile = None     # (steps, kept streams) for steps tlo..thi-1
        self._tlo = self._thi = 0

    def draw(self, n: int) -> np.ndarray:
        """The n-th normal of every kept stream, trajectory-major (1-D)."""
        if not self._lo <= n < self._hi:
            self._refill(n)
        if not self._tlo <= n < self._thi:
            a = n - self._lo
            b = min(a + TILE_STEPS, self._hi - self._lo)
            self._tile = None   # free the old tile before building the next
            part = (self._raw[:, a:b] if self._rows is None
                    else self._raw[self._rows, a:b])
            self._tile = np.ascontiguousarray(part.T)
            self._tlo, self._thi = n, n + b - a
        return self._tile[n - self._tlo]

    def keep(self, mask) -> None:
        """Keep serving only the trajectories where ``mask`` is true.

        ``mask`` runs over the trajectories kept so far, in order.
        """
        idx = np.flatnonzero(np.repeat(np.asarray(mask, dtype=bool),
                                       self._n_modes))
        self._gens = [self._gens[i] for i in idx]
        self._rows = idx if self._rows is None else self._rows[idx]
        if self._tile is not None:
            self._tile = np.ascontiguousarray(self._tile[:, idx])

    def _refill(self, n: int) -> None:
        size = min(self._block, self._n_steps - n)
        count = len(self._gens) * size
        if self._store.size < count:
            self._store = np.empty(count)
        raw = self._store[:count].reshape(len(self._gens), size)
        for g, row in zip(self._gens, raw):
            g.standard_normal(size, out=row)
        self._raw, self._rows = raw, None
        self._lo, self._hi = n, n + size
        self._tile, self._tlo, self._thi = None, 0, 0
