"""End-to-end digests of ``enhance``: the sampler's bits, pinned through the CLI.

``enhance`` promises byte-identical reruns, and a speed-up of the sampler
or of the posterior oracle is only acceptable when it keeps every output
bit. This test runs the command on a frozen input in both of its modes and
compares the sha256 of each enhanced WAV, and of the ``metrics`` record of
its log, with digests recorded from the out-of-place sampler arithmetic.
A change that moves one bit of either leg fails here.

- Oracle mode: the analytic per-sample posterior score,
  ``sampling.n_realizations = 2`` (two spawned child streams, averaged).
- Checkpoint mode: a ``dim_c = 1`` network whose parameter vector is a
  seeded draw, so its score is non-zero at every step.

Both legs share one frozen 1 s clip at 8 kHz: samples of the default
two-component mixture plus unit-variance observation noise. The digests
depend on the numpy build (random streams, ``exp``/``log`` and FFT code) as
well as on the program. ``RECORDED_ON`` names the build they were recorded
on. On any other build the test runs the same comparison and, on a
mismatch, names the build as unrecorded, as ``test_engine_digests.py``
does.
"""

import hashlib
import json
from importlib import metadata

import numpy as np

from scorewave.cli import EXIT_OK, main
from scorewave.oracle import GmmPrior
from scorewave.oracle import sample as sample_prior
from scorewave.scorenet import ScoreNet, ScoreNetConfig, save_checkpoint
from scorewave.signal import Signal, write_wav

RATE = 8000
SEED = 2206

# leg -> (sha256 of the enhanced WAV, sha256 of the log's metrics record)
DIGESTS = {
    "oracle": ("25f2e654a6efd6708d6116a9fc8acdbd47094ed724852a0739c7096a96f3e55b",
               "de33c2f1000b55ea005f179102b5f2ac8b2ff95a40bb60aa2004a265ae31f97f"),
    "checkpoint": ("45fd81d8fec771ee7f3e8f275d277ff29197e72ada331c31bb1c38db1cc8548f",
                   "b59af9038820b324fdc71e3ffde3d8e575e3c57204dc09f78fe8228b97f2558e"),
}
RECORDED_ON = [{"numpy": "2.4.6"}]


def frozen_pair(root):
    """(clean.wav, noisy.wav) under root: 1 s of the default mixture prior
    and the same samples plus N(0, 1) noise, float32 at 8 kHz."""
    rng = np.random.default_rng(20_221_006)
    prior = GmmPrior(weights=[0.3, 0.7], means=[-2.0, 2.0], variances=[0.1, 0.1])
    clean = sample_prior(prior, RATE, rng).ravel()
    noisy = clean + rng.standard_normal(RATE)
    paths = root / "clean.wav", root / "noisy.wav"
    for path, x in zip(paths, (clean, noisy)):
        write_wav(path, Signal(samples=x, sample_rate=RATE), encoding="float32")
    return paths


def frozen_checkpoint(path):
    """A dim_c = 1 network of the default size, every parameter drawn from
    N(0, 0.1^2) with a fixed seed."""
    net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=1), np.random.default_rng(0))
    net.flat[...] = 0.1 * np.random.default_rng(20_221_007).standard_normal(net.flat.size)
    save_checkpoint(path, net)
    return path


def enhance_digests(tmp_path) -> dict:
    clean, noisy = frozen_pair(tmp_path)
    (tmp_path / "oracle.cfg").write_text("sampling.n_realizations = 2\n")
    legs = {
        "oracle": ["--config", str(tmp_path / "oracle.cfg")],
        "checkpoint": ["--checkpoint", str(frozen_checkpoint(tmp_path / "net.bin"))],
    }
    out = {}
    for leg, extra in legs.items():
        wav, log = tmp_path / f"{leg}.wav", tmp_path / f"{leg}.jsonl"
        code = main(["--seed", str(SEED), "enhance", *extra, "--input", str(noisy),
                     "--output", str(wav), "--reference", str(clean), "--log", str(log)])
        assert code == EXIT_OK
        metrics = json.loads(log.read_text().splitlines()[1])["metrics"]
        out[leg] = (hashlib.sha256(wav.read_bytes()).hexdigest(),
                    hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest())
    return out


def test_enhance_outputs_match_the_recorded_digests(tmp_path):
    build = {"numpy": metadata.version("numpy")}
    got = enhance_digests(tmp_path)
    moved = sorted(leg for leg, pair in got.items() if pair != DIGESTS[leg])
    assert not moved, (
        f"enhance output moved: {moved}"
        + ("" if build in RECORDED_ON else
           f" (on the unrecorded build {build}; the digests were recorded on "
           f"{RECORDED_ON}, see the module docstring)"))
