"""End-to-end digests of ``enhance``: the sampler's bits, pinned through the CLI.

``enhance`` promises byte-identical reruns, and a speed-up of the sampler
or of the posterior oracle is only acceptable when it keeps every output
bit. This test runs the command on a frozen input in both of its modes,
and in oracle mode at one step, and compares the sha256 of each enhanced
WAV, and of the ``metrics`` record of its log, with digests recorded from
the out-of-place sampler arithmetic (the one-step leg's from the separate
N = 1 plan constructor that ``make_plan`` has since absorbed). A change
that moves one bit of any leg fails here. The ``metrics`` records were
recorded again when the metrics' dot products and norms left BLAS: a
threaded BLAS reduction reordered the sum, so those records moved with the
BLAS thread count. A second test computes every digest in two child
interpreters, at one and at two OpenBLAS threads, and requires them equal.

- Oracle mode: the analytic per-sample posterior score,
  ``sampling.n_realizations = 2`` (two spawned child streams, averaged).
- Checkpoint mode: a ``dim_c = 1`` network whose parameter vector is a
  seeded draw, so its score is non-zero at every step.
- One-step oracle mode: ``sampling.n_steps = 1``, the plan of the single
  level sigma_max, denoised once.

All legs share one frozen 1 s clip at 8 kHz: samples of the default
two-component mixture plus unit-variance observation noise. The digests
depend on the numpy build (random streams, ``exp``/``log`` and FFT code) as
well as on the program. ``RECORDED_ON`` names the build they were recorded
on. On any other build the test runs the same comparison and, on a
mismatch, names the build as unrecorded, as ``test_engine_digests.py``
does.
"""

import hashlib
import json
import os
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

import scorewave
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
               "0623024f0b0376ba39b6bf2247db1b17205b8d7fe850552c93044914cee31b81"),
    "checkpoint": ("45fd81d8fec771ee7f3e8f275d277ff29197e72ada331c31bb1c38db1cc8548f",
                   "dde416a64482cb37229bcab322424631836749c45064c16a7ca5a4d0d1d481ac"),
    "one_step": ("94aabadad17e1188d97a77dc565a6f9273f3811a5b001d653bff9248566e7ed0",
                 "7fd421368f6f232e2790303b2335fb1a0cc07f16e32cfbb1a73a782479ad4f89"),
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
    (tmp_path / "one_step.cfg").write_text("sampling.n_steps = 1\n")
    legs = {
        "oracle": ["--config", str(tmp_path / "oracle.cfg")],
        "checkpoint": ["--checkpoint", str(frozen_checkpoint(tmp_path / "net.bin"))],
        "one_step": ["--config", str(tmp_path / "one_step.cfg")],
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


# Runs in a fresh interpreter, so the OpenBLAS thread count is read at start-up.
CHILD = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_enhance_digests import enhance_digests
with tempfile.TemporaryDirectory() as d:
    print(json.dumps(enhance_digests(Path(d))))
"""


def test_digests_do_not_depend_on_the_blas_thread_count():
    src = Path(scorewave.__file__).resolve().parents[1]
    got = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", CHILD, str(Path(__file__).parent)],
                              env=env, capture_output=True, text=True, check=True)
        got[threads] = json.loads(proc.stdout.splitlines()[-1])
    assert got["1"] == got["2"]
