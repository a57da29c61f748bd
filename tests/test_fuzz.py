"""Byte-level property tests for the four file readers.

Truncated, mutated and arbitrary bytes fed to ``read_wav``,
``read_features``, ``load_checkpoint`` and ``load_config`` either load or
raise the reader's typed error (``AudioError`` for audio and feature dumps,
``ConfigError`` for checkpoints and config files), never a bare
``struct``, ``json``, numpy or decoding exception. Examples are derandomized
so every run replays the same cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorewave import AudioError, ConfigError, ScoreNet, ScoreNetConfig
from scorewave.cli import load_config
from scorewave.scorenet import OptimizerConfig, init_optimizer, load_checkpoint, save_checkpoint
from scorewave.signal import Signal, read_features, read_wav, write_features, write_wav

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

CONFIG_TEXT = b"""# a config touching every value parser
seed = 3
schedule.sigma_min = 1e-3
model.hidden = 8,8
train.gmm_weights = 0.5,0.5
distort.weights = clip:1,low_pass:2
metrics.resolutions = 512:128,1024:256
"""


def _edit(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for pos, value in edits:
        out[pos] = value
    return bytes(out)


def damaged(blob: bytes, magic: int):
    """A prefix of blob, blob with up to four bytes replaced, arbitrary
    bytes, or arbitrary bytes after blob's first ``magic`` bytes."""
    n = len(blob)
    return st.one_of(
        st.integers(0, n - 1).map(lambda k: blob[:k]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)), min_size=1, max_size=4)
        .map(lambda edits: _edit(blob, edits)),
        st.binary(max_size=2 * n),
        st.binary(max_size=2 * n).map(lambda tail: blob[:magic] + tail),
    )


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Valid files of each kind, as bytes, and a scratch path to write into."""
    root = tmp_path_factory.mktemp("fuzz")
    out = {"path": root / "case.bin"}
    samples = 0.3 * np.random.default_rng(0).standard_normal(64)
    for encoding in ("pcm16", "float32"):
        write_wav(root / f"{encoding}.wav", Signal(samples=samples, sample_rate=8000),
                  encoding=encoding)
        out[encoding] = (root / f"{encoding}.wav").read_bytes()
    write_features(root / "feat.bin", np.arange(12.0).reshape(3, 4), {"rate": 100})
    out["features"] = (root / "feat.bin").read_bytes()
    net = ScoreNet(ScoreNetConfig(dim_x=1, hidden=(4, 4), n_pairs=2, embed_dim=4),
                   np.random.default_rng(1))
    save_checkpoint(root / "net.ckpt", net,
                    init_optimizer(net.parameters(), OptimizerConfig(total_steps=10)))
    out["checkpoint"] = (root / "net.ckpt").read_bytes()
    out["config"] = CONFIG_TEXT
    return out


def loads_or_raises(seeds, blob: bytes, reader, error) -> None:
    seeds["path"].write_bytes(blob)
    try:
        reader(seeds["path"])
    except error:
        pass


@FUZZ
@given(data=st.data())
def test_read_wav(seeds, data):
    blob = data.draw(st.sampled_from(["pcm16", "float32"]).flatmap(
        lambda enc: damaged(seeds[enc], 12)))
    loads_or_raises(seeds, blob, lambda p: read_wav(p, downmix=True), AudioError)


@FUZZ
@given(data=st.data())
def test_read_features(seeds, data):
    loads_or_raises(seeds, data.draw(damaged(seeds["features"], 8)), read_features, AudioError)


@FUZZ
@given(data=st.data())
def test_load_checkpoint(seeds, data):
    loads_or_raises(seeds, data.draw(damaged(seeds["checkpoint"], 8)), load_checkpoint,
                    ConfigError)


@FUZZ
@given(data=st.data())
def test_load_config(seeds, data):
    loads_or_raises(seeds, data.draw(damaged(seeds["config"], 0)), load_config, ConfigError)
