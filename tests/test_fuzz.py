"""Byte-level property tests for the three file readers.

Truncated, mutated and arbitrary bytes fed to ``read_wav``,
``load_checkpoint`` and ``load_config`` either load or raise the reader's
typed error (``AudioError`` for audio, ``ConfigError`` for checkpoints
and config files), never a bare ``struct``, ``json``, numpy or decoding
exception. Command lines built from the CLI's commands with malformed
values and files end in a documented exit code. Examples are derandomized
so every run replays the same cases.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorewave import AudioError, ConfigError, ScoreNet, ScoreNetConfig
from scorewave.cli import load_config, main
from scorewave.scorenet import OptimizerConfig, init_optimizer, load_checkpoint, save_checkpoint
from scorewave.signal import Signal, read_wav, write_wav

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
def test_load_checkpoint(seeds, data):
    loads_or_raises(seeds, data.draw(damaged(seeds["checkpoint"], 8)), load_checkpoint,
                    ConfigError)


@FUZZ
@given(data=st.data())
def test_load_config(seeds, data):
    loads_or_raises(seeds, data.draw(damaged(seeds["config"], 0)), load_config, ConfigError)


# -- the CLI as a whole: every command line ends in a documented exit code

SMALL_CONFIG = """model.hidden = 4
model.n_pairs = 2
model.embed_dim = 4
train.batch_size = 8
sampling.n_steps = 4
metrics.resolutions = 64:16
"""


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Named inputs, good and bad, and a directory for command outputs."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(2)
    files = {}

    def put(name, data):
        files[name] = root / name
        files[name].write_bytes(data.encode() if isinstance(data, str) else data)

    for rate in (16000, 8000):
        files[f"{rate}.wav"] = root / f"{rate}.wav"
        write_wav(files[f"{rate}.wav"], Signal(samples=0.1 * rng.standard_normal(400),
                                               sample_rate=rate), encoding="pcm16")
    for name, samples in (("0_samples", np.zeros(0)), ("1_sample", np.full(1, 0.5)),
                          ("silent", np.zeros(400))):
        files[f"{name}.wav"] = root / f"{name}.wav"
        write_wav(files[f"{name}.wav"], Signal(samples=samples, sample_rate=16000),
                  encoding="float32")
    put("cut.wav", files["16000.wav"].read_bytes()[:30])
    put("empty", b"")
    put("binary", b"\xff\xfe\x00\x81" * 8)
    for dim_x, dim_c in ((1, 1), (2, 0)):
        net = ScoreNet(ScoreNetConfig(dim_x=dim_x, dim_c=dim_c, hidden=(4,), n_pairs=2,
                                      embed_dim=4), np.random.default_rng(3))
        files[f"x{dim_x}c{dim_c}.ckpt"] = root / f"x{dim_x}c{dim_c}.ckpt"
        save_checkpoint(files[f"x{dim_x}c{dim_c}.ckpt"], net,
                        init_optimizer(net.parameters(), OptimizerConfig(total_steps=10)))
    put("cut.ckpt", files["x1c1.ckpt"].read_bytes()[:-8])
    put("small.cfg", SMALL_CONFIG)
    put("bad_key.cfg", SMALL_CONFIG + "no.such.key = 1\n")
    put("bad_value.cfg", SMALL_CONFIG + "model.hidden = 0\n")
    put("no_equals.cfg", "seed\n")
    files["trained.ckpt"] = root / "trained.ckpt"  # with its .rng.json, so it resumes
    assert main(["--config", str(files["small.cfg"]), "train", "--out", str(files["trained.ckpt"]),
                 "--iterations", "1"]) == 0
    put("manifest", f"{files['16000.wav']}\n{files['8000.wav']}\n")
    put("bad_manifest", f"{files['cut.wav']}\n{root / 'missing.wav'}\n")
    put("pairs", f"{files['16000.wav']} {files['16000.wav']}\n")
    put("bad_pairs", f"{files['16000.wav']}\n")
    files["missing"] = root / "missing"
    files["dir"] = root
    out = root / "out"
    out.mkdir()
    return files, out


_SERIAL = itertools.count()  # a fresh output name for every example
WAVS = ("16000.wav", "8000.wav", "0_samples.wav", "1_sample.wav", "silent.wav")


def cli_argv(files, out):
    """A command line: one command, its required arguments most of the
    time, and each value most often a fitting one, else a malformed or
    hostile one (any file, a missing path, a bad number)."""
    every_path = [str(files[k]) for k in sorted(files)]

    def pick(good, bad):
        return st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(bad))

    def path(*good):
        return pick([str(files[k]) for k in good], every_path)

    outputs = pick(["new"], ["dir", "under_file", "under_missing"]).map(lambda kind: {
        "new": str(out / f"o{next(_SERIAL)}"), "dir": str(out),
        "under_file": str(files["small.cfg"] / "o"),
        "under_missing": str(files["missing"] / "o")}[kind])
    huge = "99999999999999999999"
    common = {"--config": path("small.cfg"),
              "--seed": pick(["0", "7", huge], ["-1", "x", ""]),
              "--jobs": pick(["1", "2"], ["0", "-1", "x", huge])}
    required = {"manifest", "out_dir", "--out", "--iterations", "--input", "--output"}
    commands = {
        "distort": {"manifest": path("manifest"), "out_dir": outputs, "--log": outputs},
        "train": {"--out": outputs, "--iterations": pick(["0", "1", "2"], ["-1", "x", huge]),
                  "--data": pick(["gmm"], ["gmm", str(files["manifest"])] + every_path),
                  "--resume": path("trained.ckpt"), "--trace": outputs},
        "enhance": {"--input": path(*WAVS), "--output": outputs,
                    "--checkpoint": path("x1c1.ckpt", "trained.ckpt"),
                    "--reference": path(*WAVS), "--log": outputs},
        "eval": {"--pairs": path("pairs"), "--reference": path(*WAVS),
                 "--estimate": path(*WAVS), "--out": outputs},
        "sweep": {"--input": path(*WAVS), "--reference": path(*WAVS),
                  "--checkpoint": path("x1c1.ckpt", "trained.ckpt"),
                  "--n-list": pick(["1,2", "4"], ["0", "-2", "x", "", "2,,3"]),
                  "--eps-list": pick(["2.3", "1.5,3"], ["0", "-1", "nan", "x", ""]),
                  "--out": outputs},
        "sample-prior": {"--n": pick(["1", "5", "100"], ["0", "-1", "x", huge]),
                         "--method": pick(["direct", "langevin"], ["x"]),
                         "--out": outputs, "--log": outputs},
    }

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(commands)))
        words = [command]
        for name, values in {**common, **commands[command]}.items():
            # train always gets --iterations: its default is 2000 steps
            odds = 1.0 if name == "--iterations" else 0.9 if name in required else 0.5
            if draw(st.floats(0.0, 1.0)) < odds:
                value = draw(values)
                words += [name, value] if name.startswith("--") else [value]
        return words

    return argv()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_main_exit_codes(cli_files, data):
    """``main`` returns 0, 2, 3 or 4, or argparse exits with 2; no other
    exception leaves it."""
    files, out = cli_files
    argv = data.draw(cli_argv(files, out))
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
    else:
        assert code in (0, 2, 3, 4), argv


@pytest.mark.parametrize("command", ["enhance", "sweep", "eval"])
def test_every_clip_pair_exit_codes(cli_files, command):
    """Each WAV of the alphabet, degenerate ones included, with each other
    one as its reference and with none, through every command that reads
    audio: only a documented exit code comes out."""
    files, out = cli_files
    for clip, ref in itertools.product(WAVS, (None, *WAVS)):
        argv = ["--config", str(files["small.cfg"]), command,
                "--estimate" if command == "eval" else "--input", str(files[clip])]
        argv += {"enhance": ["--output", str(out / f"o{next(_SERIAL)}.wav")],
                 "sweep": ["--n-list", "1,2", "--eps-list", "2.3"], "eval": []}[command]
        if ref is not None:
            argv += ["--reference", str(files[ref])]
        assert main(argv) in (0, 2, 3, 4), argv
