"""Deterministic per-(trajectory, mode) noise streams.

Every trajectory/mode pair owns its own counter-based Philox stream, keyed by
(master seed, trajectory index, mode index).  Results therefore do not depend
on chunking, scheduling, or worker count, and runs at different spectral
cutoffs see identical noise on the modes they share.  ``BlockNormals`` is the
one way the step loops read these streams.

The key contract: stream (i, k) of kind ``kind`` is the Philox generator whose
key is ::

    np.random.SeedSequence(master_seed, spawn_key=(kind, i, mode_key(k))
                           ).generate_state(2, np.uint64)

so plain numpy rebuilds any stream.  ``stream_keys`` computes the keys of a
whole batch in one vectorised pass of SeedSequence's hash, which costs far
less than a SeedSequence object per stream, and ``mode_stream(key)`` opens one
stream from its key.  ``mode_stream`` takes the key, not the seed, because it
is the one per-stream seam: the benchmark's tracer and the noise-count tests
wrap it to time or count every stream a batch opens.
"""

from __future__ import annotations

import functools

import numpy as np

# Stream namespaces.  Independent consumers of randomness get disjoint kinds
# so that e.g. the scalar reference simulation never reuses field noise.
KIND_FIELD = 0
KIND_ORACLE = 2
KIND_PROBE = 9

# SeedSequence's pool size and hash constants, as written in numpy's
# numpy/random/bit_generator.pyx (DEFAULT_POOL_SIZE, INIT_A, MULT_A, INIT_B,
# MULT_B, MIX_MULT_L, MIX_MULT_R, XSHIFT).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFF_FFFF


def mode_key(k: int) -> int:
    """Fold a signed mode index into a nonnegative key (0,-1,1,-2,2 -> 0,1,2,3,4)."""
    k = int(k)
    return 2 * k if k >= 0 else -2 * k - 1


def _seed_words(n: int) -> list:
    """The uint32 words, least significant first, that SeedSequence reads
    from the nonnegative integer ``n``."""
    n = int(n)
    if n < 0:
        raise ValueError(f"master seed must be nonnegative, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _one_word_each(values, what: str) -> np.ndarray:
    """``values`` as uint32; SeedSequence reads each from one word only
    below 2**32, so any other value would silently key another stream."""
    try:
        a = np.asarray(values, dtype=np.int64)
    except OverflowError:
        a = None
    if a is None or ((a < 0) | (a > _MASK32)).any():
        raise ValueError(f"{what} must lie in [0, 2**32)")
    return a.astype(np.uint32)


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) pair of each successive hash in SeedSequence."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


def _hashmix(value, consts):
    """SeedSequence's ``hashmix``: for a Python int or a uint32 array."""
    xor, mult = next(consts)
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    """SeedSequence's ``mix``: for Python ints or uint32 arrays."""
    r = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> _XSHIFT)


def stream_keys(master_seed: int, traj_indices, wavenumbers,
                kind: int = KIND_FIELD) -> np.ndarray:
    """The (n_traj * n_modes, 2) uint64 Philox keys, trajectory-major.

    Row ``i * len(wavenumbers) + j`` is the key of stream
    (``traj_indices[i]``, ``wavenumbers[j]``) under the key contract above.
    The words of the master seed and of ``kind`` are mixed once, as Python
    ints; the trajectory and mode words are mixed for the whole batch in
    uint32 arrays.  Raises ``ValueError`` for a negative seed and for an
    index or mode key outside [0, 2**32).
    """
    seed = _seed_words(master_seed)
    traj = _one_word_each(traj_indices, "trajectory indices")
    modes = _one_word_each([mode_key(k) for k in wavenumbers], "mode keys")
    # A spawn key follows, so a short seed is padded to the pool size.
    entropy = seed + [0] * (_POOL - len(seed))
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in (*entropy[_POOL:], int(kind), traj[:, None], modes[None, :]):
        pool = [_mix(p, _hashmix(word, consts)) for p in pool]
    # generate_state(2, np.uint64): one hash per pool word, paired into
    # little-endian uint64s.
    consts = _hash_constants(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (_hashmix(p, consts).astype(np.uint64) for p in pool)
    keys = np.stack([lo0 | hi0 << np.uint64(32), lo1 | hi1 << np.uint64(32)],
                    axis=-1)
    return keys.reshape(-1, 2)


class _PhiloxKey:
    """One precomputed key, served to Philox as numpy's ``ISeedSequence``.

    Philox asks its seed sequence for ``generate_state(2, np.uint64)`` only,
    and this answers with the key.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


@functools.cache
def _register_philox_key() -> None:
    # on first use, so that importing srlab does not import numpy.random
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_PhiloxKey)


def mode_stream(key) -> np.random.Generator:
    """Generator for the stream with this Philox key (a ``stream_keys`` row)."""
    _register_philox_key()
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


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

    Stream (i, k) is ``mode_stream`` of its ``stream_keys`` row, and step n
    reads the n-th normal of every kept stream, trajectory-major.  Normals
    are drawn a block of steps at a time, never past ``n_steps``, and
    only for the trajectories still kept; each step is then read from a
    contiguous (steps, kept streams) tile of up to TILE_STEPS steps.  A
    stream's values depend on its key alone, so neither the block length nor
    dropping other trajectories changes what a kept trajectory sees.
    """

    def __init__(self, master_seed: int, traj_indices, wavenumbers,
                 n_steps: int, kind: int = KIND_FIELD):
        self._gens = [mode_stream(key) for key in
                      stream_keys(master_seed, traj_indices, wavenumbers, kind)]
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
