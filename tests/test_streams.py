"""The stream key contract: ``stream_keys`` is numpy's SeedSequence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srlab import _streams
from srlab._streams import (KIND_FIELD, KIND_ORACLE, derive_seed, mode_key,
                            mode_stream, stream_keys)

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
