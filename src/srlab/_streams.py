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

Philox is counter-based: a stream is fully given by its key, a zero counter
and an empty buffer.  So ``mode_stream(key, reuse)`` opens a stream by
re-keying a ``reusable_stream`` Generator, not by making a new one, and the
re-keyed Generator draws bit for bit what a new one would.

``BlockNormals`` draws each stream's normals into a (streams, steps) block,
one size-free ``standard_normal(out=row)`` call per stream, in the fewest
blocks of about equal length that the caps allow (``_block_steps``).  Steps
are read from step-major tiles that are copied out of the block a few
hundred streams at a time, so that each part of the transpose stays in
cache.  Dropping trajectories only narrows the rows of the block and the
columns of the tile that are served; their streams leave at the next
block, so a drop costs no per-stream Python work and no copy.  A run that
fits in one block opens no Generator per stream: it draws every stream from
one Generator that ``mode_stream`` re-keys before each row.  None of this
changes a value any stream gives.
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


def _philox(key):
    _register_philox_key()
    return np.random.Philox(_PhiloxKey(key))


@functools.cache
def _reusable_type() -> type:
    """The Generator type that ``mode_stream`` re-keys, made on first use
    for the same reason as the key type's registration."""

    class ReusableGenerator(np.random.Generator):
        """A Generator on a Philox that keeps the state dict it is re-keyed
        with: the start of a stream, a zero counter and an empty buffer,
        for which only the key changes."""

        __slots__ = ("start",)

        def __init__(self, key):
            super().__init__(_philox(key))
            zeros = (0, 0, 0, 0)
            self.start = {"bit_generator": "Philox",
                          "state": {"counter": zeros, "key": key},
                          "buffer": zeros, "buffer_pos": 4,
                          "has_uint32": 0, "uinteger": 0}

    return ReusableGenerator


def reusable_stream(key):
    """A Generator for the stream with this key that ``mode_stream`` can
    re-key to any other stream."""
    return _reusable_type()(key)


def mode_stream(key, reuse=None) -> np.random.Generator:
    """Generator for the stream with this Philox key (a ``stream_keys`` row).

    Given ``reuse``, a ``reusable_stream``, re-key its Philox to the start
    of this stream and return it: it then draws what a new Generator
    would, whatever it drew before.
    """
    if reuse is None:
        return np.random.Generator(_philox(key))
    start = reuse.start
    start["state"]["key"] = key
    reuse.bit_generator.state = start
    return reuse


def _rekeyed(keys):
    """``mode_stream`` of each of the (n, 2) ``keys`` in turn, all one
    re-keyed Generator, so each stream is drawn before the next is served."""
    if len(keys):
        reuse = reusable_stream(keys[0])
        for key in keys.tolist():
            yield mode_stream(key, reuse)


def derive_seed(master_seed: int, tag: int) -> int:
    """Derive a child 64-bit seed (used for bisection probes and sweeps)."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(KIND_PROBE, int(tag)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# A block holds at most BLOCK_NORMALS normals (64 MB) and BLOCK_STEPS steps,
# so a stopped trajectory wastes at most one block of draws even when few
# streams share the budget; ``_block_steps`` splits a run into the fewest
# blocks these caps allow, all of about equal length.  Steps are served from
# step-major tiles of TILE_STEPS steps copied out of the block TILE_STREAMS
# streams at a time.  On an 8448 x 1024 block (2-vCPU VM) that copy costs
# ~8 ns per normal as one whole-width transpose, ~3 ns in sub-blocks of 256
# streams and ~6 ns in sub-blocks of 512, whose part of the tile no longer
# stays in cache.
BLOCK_NORMALS = 8_000_000
BLOCK_STEPS = 1024
TILE_STEPS = 32
TILE_STREAMS = 256


def _block_steps(n_steps: int, n_streams: int) -> int:
    """Steps per block of ``n_streams`` streams run for ``n_steps`` steps:
    the fewest blocks the caps allow, all this long but the last, which is
    shorter by fewer steps than there are blocks."""
    cap = min(BLOCK_STEPS, max(16, BLOCK_NORMALS // max(1, n_streams)))
    n_blocks = max(1, -(-n_steps // cap))
    return -(-n_steps // n_blocks)


class BlockNormals:
    """The normals of per-(trajectory, mode) streams, served one step at a time.

    Stream (i, k) is ``mode_stream`` of its ``stream_keys`` row, and step n
    reads the n-th normal of every kept stream, trajectory-major.  Normals
    are drawn a block of steps at a time (``_block_steps``), never past
    ``n_steps``, and only for the trajectories kept when the block is
    drawn; each step is then read from a contiguous (steps, kept streams)
    tile of up to TILE_STEPS steps, assembled TILE_STREAMS streams at a time
    so that the transpose stays in cache.  ``keep`` only narrows the rows
    the block serves and the columns the tile serves; the dropped streams
    leave the stream list at the next block and the tile at the next
    tile.  A stream's values depend on its key alone, so neither the block
    length nor dropping other trajectories changes what a kept trajectory
    sees.

    A run of more than one block keeps a Generator per stream, which
    carries its counter and buffer from one block to the next.  A run that
    fits in one block keeps only the keys: its one block draws each stream
    whole from a single Generator that ``mode_stream`` re-keys before each
    row.  Both paths open every stream through ``mode_stream``.
    """

    def __init__(self, master_seed: int, traj_indices, wavenumbers,
                 n_steps: int, kind: int = KIND_FIELD):
        keys = stream_keys(master_seed, traj_indices, wavenumbers, kind)
        self._n_modes = len(wavenumbers)
        self._n_steps = n_steps
        self._block = _block_steps(n_steps, len(keys))
        self._one_block = self._block >= n_steps
        # the keys of a one-block run; else a Generator per stream
        self._streams = (keys if self._one_block
                         else [mode_stream(key) for key in keys])
        self._store = np.empty(0)
        self._raw = None      # (streams, steps) of the current block
        self._rows = None     # rows of _streams and _raw still served; None for all
        self._lo = self._hi = 0
        self._tile = None     # (steps, streams) for steps tlo..thi-1
        self._cols = None     # columns of _tile still served; None for all
        self._tlo = self._thi = 0

    def draw(self, n: int) -> np.ndarray:
        """The n-th normal of every kept stream, trajectory-major (1-D)."""
        if not self._lo <= n < self._hi:
            self._refill(n)
        if not self._tlo <= n < self._thi:
            a = n - self._lo
            b = min(a + TILE_STEPS, self._hi - self._lo)
            raw, rows = self._raw, self._rows
            width = len(raw) if rows is None else len(rows)
            self._tile = None   # free the old tile before building the next
            tile = np.empty((b - a, width))
            for s0 in range(0, width, TILE_STREAMS):
                s1 = s0 + TILE_STREAMS
                tile[:, s0:s1] = (raw[s0:s1, a:b] if rows is None
                                  else raw[rows[s0:s1], a:b]).T
            self._tile, self._cols = tile, None
            self._tlo, self._thi = n, n + b - a
        row = self._tile[n - self._tlo]
        return row if self._cols is None else row[self._cols]

    def keep(self, mask) -> None:
        """Keep serving only the trajectories where ``mask`` is true.

        ``mask`` runs over the trajectories kept so far, in order.
        """
        idx = np.flatnonzero(np.repeat(np.asarray(mask, dtype=bool),
                                       self._n_modes))
        self._rows = idx if self._rows is None else self._rows[idx]
        self._cols = idx if self._cols is None else self._cols[idx]

    def _refill(self, n: int) -> None:
        streams, rows = self._streams, self._rows
        if rows is not None:
            streams = self._streams = (streams[rows] if self._one_block
                                       else [streams[i] for i in rows])
        size = min(self._block, self._n_steps - n)
        count = len(streams) * size
        if self._store.size < count:
            self._store = np.empty(count)
        raw = self._store[:count].reshape(len(streams), size)
        if self._one_block:
            streams = _rekeyed(streams)
        for g, row in zip(streams, raw):
            g.standard_normal(out=row)
        self._raw, self._rows = raw, None
        self._lo, self._hi = n, n + size
        self._tile, self._cols, self._tlo, self._thi = None, None, 0, 0
