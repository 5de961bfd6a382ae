"""The stream key contract: ``stream_keys`` is numpy's SeedSequence, and
``BlockNormals`` serves each stream's own normals."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srlab import _streams
from srlab._streams import (KIND_FIELD, KIND_ORACLE, BlockNormals,
                            derive_seed, mode_key, mode_stream, stream_keys)

K = 3
TRAJ = [0, 5, 2**32 - 1]
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 3, derive_seed(7, 3)]


def seed_sequence(seed, i, k, kind):
    return np.random.SeedSequence(seed, spawn_key=(kind, i, mode_key(k)))


@pytest.mark.parametrize("kind", [KIND_FIELD, KIND_ORACLE])
@pytest.mark.parametrize("seed", SEEDS)
def test_keys_equal_seed_sequence_state(seed, kind):
    keys = stream_keys(seed, TRAJ, range(-K, K + 1), kind)
    expect = [seed_sequence(seed, i, k, kind).generate_state(2, np.uint64)
              for i in TRAJ for k in range(-K, K + 1)]
    assert keys.dtype == np.uint64
    np.testing.assert_array_equal(keys, expect)


def test_stream_draws_what_numpy_draws():
    key = stream_keys(SEEDS[-1], [2**32 - 1], [-2], KIND_ORACLE)[0]
    ours = mode_stream(key).standard_normal(100)
    ref = np.random.Generator(np.random.Philox(
        seed_sequence(SEEDS[-1], 2**32 - 1, -2, KIND_ORACLE)))
    np.testing.assert_array_equal(ours, ref.standard_normal(100))


@pytest.mark.parametrize("seed,traj", [(-1, [0]), (1, [3, -1]), (1, [2**32]),
                                       (1, [2**64])],
                         ids=["negative-seed", "negative-index",
                              "index-2**32", "index-2**64"])
def test_values_that_would_key_another_stream_raise(seed, traj):
    with pytest.raises(ValueError):
        stream_keys(seed, traj, [0])


def test_import_leaves_numpy_random_unloaded():
    # the key type registers with numpy.random on first use, not on import
    src = str(Path(_streams.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, srlab; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("n_steps,n_streams", [(1, 1), (130, 1), (1000, 10_000),
                                               (1000, 10_001), (3000, 1),
                                               (777, 2_000_000)])
def test_blocks_are_the_fewest_the_caps_allow_and_even(n_steps, n_streams):
    cap = min(_streams.BLOCK_STEPS,
              max(16, _streams.BLOCK_NORMALS // n_streams))
    block = _streams._block_steps(n_steps, n_streams)
    n_blocks = -(-n_steps // block)
    assert block <= cap and n_blocks == -(-n_steps // cap)
    assert n_steps - (n_blocks - 1) * block > block - n_blocks


@pytest.mark.parametrize("n_traj,modes,n_steps,blocks", [
    (1, (0,), 150, 4), (255, (0,), 150, 4), (256, (0,), 150, 4),
    (257, (0,), 150, 4), (200, (-1, 0, 3), 150, 4),
    (300, (0,), 150, 1), (200, (-1, 0, 3), 100, 1)],
    ids=["1", "255", "256", "257", "600", "300-one-block", "600-one-block"])
def test_block_normals_serve_each_streams_own_normals(n_traj, modes, n_steps,
                                                      blocks, monkeypatch):
    n_modes = len(modes)
    if blocks > 1:
        # blocks of at most 40 steps: 150 steps run as 38, 38, 38 and 36
        monkeypatch.setattr(_streams, "BLOCK_NORMALS", 40 * n_traj * n_modes)
    block = _streams._block_steps(n_steps, n_traj * n_modes)
    assert -(-n_steps // block) == blocks
    assert blocks == 1 or n_steps % block
    keys = stream_keys(11, range(n_traj), modes)
    direct = np.array([mode_stream(key).standard_normal(n_steps)
                       for key in keys])
    # keep after a step mid-tile, on a tile edge, just before a refill, and
    # on a tile edge and a block edge at once (in one block: the first two)
    keep_after = {10, _streams.TILE_STEPS - 1, block - 1, block + 5,
                  2 * block - 1}
    rng = np.random.default_rng(n_traj)
    kept = np.arange(n_traj)
    noise = BlockNormals(11, range(n_traj), modes, n_steps)
    for n in range(n_steps):
        streams = (kept[:, None] * n_modes + np.arange(n_modes)).ravel()
        np.testing.assert_array_equal(noise.draw(n), direct[streams, n])
        if n in keep_after:
            mask = rng.random(kept.size) < 0.8
            mask[0] = True   # a single trajectory stays
            noise.keep(mask)
            kept = kept[mask]


@pytest.fixture
def philox_made(monkeypatch):
    """The number of np.random.Philox objects made while a test runs."""
    made = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        made.append(None)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    return made


@pytest.mark.parametrize("blocks", [1, 3])
def test_only_a_run_of_several_blocks_makes_a_philox_per_stream(
        blocks, philox_made, monkeypatch):
    # 10 trajectories of 3 modes for 40 steps: one block, or three of at
    # most 16 steps
    if blocks > 1:
        monkeypatch.setattr(_streams, "BLOCK_NORMALS", 30 * 16)
    noise = BlockNormals(5, range(10), (-1, 0, 2), 40)
    assert -(-40 // _streams._block_steps(40, 30)) == blocks
    for n in range(40):
        noise.draw(n)
    assert len(philox_made) == (1 if blocks == 1 else 30)


@pytest.mark.parametrize("n_steps,blocks", [(150, 1), (3000, 3)],
                         ids=["one-block", "3-blocks"])
def test_zero_trajectories_serve_empty_steps(n_steps, blocks, philox_made):
    noise = BlockNormals(11, range(0), (0, 1), n_steps)
    assert -(-n_steps // _streams._block_steps(n_steps, 0)) == blocks
    for n in range(n_steps):
        z = noise.draw(n)
        assert z.shape == (0,) and z.dtype == np.float64
        if n == 10:
            noise.keep(np.zeros(0, dtype=bool))
    assert not philox_made


LENGTHS = [1, 2, 3, 4, 5, 20, 1000]


def test_rekeyed_stream_draws_what_a_new_stream_draws():
    keys = np.concatenate([stream_keys(seed, TRAJ, range(-2, 3), kind)
                           for seed in SEEDS
                           for kind in (KIND_FIELD, KIND_ORACLE)])
    assert len(keys) >= 200
    reuse = _streams.reusable_stream(keys[-1])
    for i, key in enumerate(keys):
        length = LENGTHS[i % len(LENGTHS)]
        new = mode_stream(key)
        # one-block runs pass each key as a pair of ints
        got = mode_stream(key if i % 3 else key.tolist(), reuse)
        assert got is reuse
        np.testing.assert_array_equal(got.standard_normal(length),
                                      new.standard_normal(length))
        # a float32 normal reads half a 64-bit word, so the next re-key
        # finds a half-used word as well as a partly used buffer
        assert (got.standard_normal(dtype=np.float32)
                == new.standard_normal(dtype=np.float32))
