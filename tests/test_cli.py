"""Command-line toolkit: config parsing, logs, replay, and exit codes.

Every command must echo its fully-resolved config and seed as the first
log line, reruns with identical inputs must be byte-identical, and the
distortion log must contain everything needed to replay its outputs.
Exit codes: 0 success, 2 config, 3 I/O, 4 numeric.
"""

import json
import os
import struct
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from scorewave import scorenet
from scorewave.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    load_config,
    main,
)
from scorewave.distort import (
    ENGINE_VERSION,
    ChainConfig,
    DistortionSpec,
    apply_chain,
    chain_from_record,
)
from scorewave.errors import ConfigError, TrainingError
from scorewave.metrics import evaluate_pair, snr
from scorewave.oracle import GmmPrior
from scorewave.oracle import sample as sample_prior
from scorewave.scorenet import ScoreNet, ScoreNetConfig, load_checkpoint, save_checkpoint
from scorewave.signal import Signal, read_wav, write_wav


def write_tone(path, n=4000, rate=16000, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal(n)
    write_wav(path, Signal(samples=x, sample_rate=rate), encoding="float32")
    return x


def read_lines(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg["seed"] == 0
        assert cfg["schedule.sigma_min"] == 5e-4
        assert cfg["schedule.sigma_max"] == 5.0
        assert cfg["sampling.n_steps"] == 64
        assert cfg["model.hidden"] == (64, 64)
        assert cfg["distort.count_probs"] == (0.35, 0.45, 0.15, 0.04, 0.01)
        assert cfg["metrics.resolutions"] == ((512, 128), (1024, 256), (2048, 512))

    def test_file_overrides_with_comments(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# experiment twelve\n"
            "seed = 42\n"
            "\n"
            "schedule.sigma_max = 2.5\n"
            "model.hidden = 16,8\n"
            "metrics.resolutions = 256:64,512:128\n"
            "distort.weights = clip:3,low_pass:20\n"
        )
        cfg = load_config(str(path))
        assert cfg["seed"] == 42
        assert cfg["schedule.sigma_max"] == 2.5
        assert cfg["model.hidden"] == (16, 8)
        assert cfg["metrics.resolutions"] == ((256, 64), (512, 128))
        assert cfg["distort.weights"] == {"clip": 3.0, "low_pass": 20.0}
        # untouched keys keep their defaults
        assert cfg["sampling.epsilon"] == 2.3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("schedule.sigma_mx = 2.5\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("sampling.n_steps = many\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(str(path))

    def test_missing_file_is_config_error_exit(self, tmp_path):
        code = main(["--config", str(tmp_path / "nope.txt"),
                     "sample-prior", "--n", "1", "--out", str(tmp_path / "d.txt")])
        assert code == EXIT_CONFIG

    def test_non_utf8_file_is_config_error_exit(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"seed = 4\n\xff\xfe\x00bad\n")
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(path))
        code = main(["--config", str(path),
                     "sample-prior", "--n", "1", "--out", str(tmp_path / "d.txt")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "d.txt").exists()

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """A config saved with a UTF-8 BOM reads as the same text without it."""
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"\xef\xbb\xbfseed = 42\n")
        assert load_config(str(path))["seed"] == 42
        code = main(["--config", str(path),
                     "sample-prior", "--n", "1", "--out", str(tmp_path / "d.txt")])
        assert code == EXIT_OK

    def test_echo_is_json_serializable(self):
        json.dumps(load_config(None))

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_is_config_error(self, tmp_path, jobs):
        write_tone(tmp_path / "x.wav", seed=1)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/x.wav\n")
        out = tmp_path / "out"
        code = main(["distort", str(manifest), str(out), "--jobs", jobs])
        assert code == EXIT_CONFIG
        assert not out.exists()


class TestDistort:
    def test_empty_manifest_writes_header_only_log(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("")
        out = tmp_path / "out"
        code = main(["distort", str(manifest), str(out), "--seed", "5"])
        assert code == EXIT_OK
        lines = read_lines(out / "distort_log.jsonl")
        assert len(lines) == 1
        assert lines[0]["command"] == "distort"
        assert lines[0]["seed"] == 5
        assert "distort.count_probs" in lines[0]["config"]

    def test_header_names_engine_version_and_numeric_builds(self, tmp_path):
        """Replay is bit-exact for one engine version on one numpy/scipy build;
        the header says which."""
        from importlib import metadata

        manifest = tmp_path / "m.txt"
        manifest.write_text("")
        main(["distort", str(manifest), str(tmp_path / "out")])
        header = read_lines(tmp_path / "out" / "distort_log.jsonl")[0]
        assert header["engine_version"] == ENGINE_VERSION
        assert header["numpy"] == metadata.version("numpy") == np.__version__
        assert header["scipy"] == metadata.version("scipy")

    def test_pairs_written_and_log_complete(self, tmp_path):
        write_tone(tmp_path / "x.wav", seed=1)
        write_tone(tmp_path / "y.wav", seed=2)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/x.wav\n{tmp_path}/y.wav\n")
        out = tmp_path / "out"
        code = main(["distort", str(manifest), str(out), "--seed", "7"])
        assert code == EXIT_OK
        lines = read_lines(out / "distort_log.jsonl")
        assert len(lines) == 3
        for record in lines[1:]:
            assert Path(record["clean"]).exists()
            assert Path(record["distorted"]).exists()
            assert len(record["chain"]) >= 1
            assert isinstance(record["offset"], int)
            assert isinstance(record["clipped"], bool)

    def test_manifest_byte_order_mark_is_dropped(self, tmp_path):
        write_tone(tmp_path / "x.wav", seed=1)
        manifest = tmp_path / "m.txt"
        manifest.write_bytes(b"\xef\xbb\xbf" + f"{tmp_path}/x.wav\n".encode())
        out = tmp_path / "out"
        assert main(["distort", str(manifest), str(out), "--seed", "7"]) == EXIT_OK
        _, record = read_lines(out / "distort_log.jsonl")
        assert record["input"] == f"{tmp_path}/x.wav"

    def test_rerun_is_byte_identical(self, tmp_path):
        write_tone(tmp_path / "x.wav", seed=3)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/x.wav\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["distort", str(manifest), str(out_a), "--seed", "11"]) == EXIT_OK
        assert main(["distort", str(manifest), str(out_b), "--seed", "11"]) == EXIT_OK
        for name in sorted(p.name for p in out_a.glob("*.wav")):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_log_replays_to_written_wavs(self, tmp_path):
        """The chain log alone reconstructs the written pair bit-exactly."""
        write_tone(tmp_path / "x.wav", seed=4, n=6000)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/x.wav\n")
        out = tmp_path / "out"
        assert main(["distort", str(manifest), str(out), "--seed", "13"]) == EXIT_OK
        record = read_lines(out / "distort_log.jsonl")[1]
        chain = tuple(DistortionSpec.from_dict(d) for d in record["chain"])
        source = read_wav(record["input"], downmix=True)
        pair = apply_chain(source, chain, ChainConfig())
        written_clean = read_wav(record["clean"])
        written_dist = read_wav(record["distorted"])
        np.testing.assert_array_equal(
            np.asarray(pair.clean.samples, dtype=np.float32), written_clean.samples)
        np.testing.assert_array_equal(
            np.asarray(pair.distorted.samples, dtype=np.float32), written_dist.samples)
        assert pair.offset == record["offset"]

    def test_filters_above_nyquist_of_8khz_inputs_do_not_fail(self, tmp_path):
        """Bounds reach 7.5 kHz whatever the rate: at 8 kHz a low pass, a
        sibilance boost or a random_eq band can be drawn at or above Nyquist,
        where it leaves the input unchanged instead of failing the file."""
        paths = []
        for i in range(4):
            paths.append(tmp_path / f"in{i}.wav")
            write_tone(paths[-1], rate=8000, seed=40 + i)
        manifest = tmp_path / "m.txt"
        manifest.write_text("".join(f"{p}\n" for p in paths))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("distort.count_probs = 0, 0, 1\n"
                       "distort.weights = low_pass:1,sibilance_boost:1,random_eq:1\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "distort", str(manifest), str(out), "--seed", "3"])
        assert code == EXIT_OK
        records = read_lines(out / "distort_log.jsonl")[1:]
        assert [r["input"] for r in records] == [str(p) for p in paths]
        assert all("error" not in r and Path(r["distorted"]).exists() for r in records)

    def test_missing_file_logged_and_exit_io(self, tmp_path):
        write_tone(tmp_path / "good.wav", seed=5)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/absent.wav\n{tmp_path}/good.wav\n")
        out = tmp_path / "out"
        code = main(["distort", str(manifest), str(out), "--seed", "1"])
        assert code == EXIT_IO
        lines = read_lines(out / "distort_log.jsonl")
        assert "error" in lines[1]
        assert "chain" in lines[2]  # the good file still went through

    def test_empty_input_fails_by_name_and_the_rest_are_written(self, tmp_path):
        """A 0-sample WAV fails its own record as an empty input (exit 3);
        the 1- and 4,000-sample files beside it are written with the bytes
        they had before the check existed (engine version 3, the same bits
        at version 4 on inputs this short)."""
        import hashlib

        paths = [tmp_path / f"n{n}.wav" for n in (0, 1, 4000)]
        for path, n in zip(paths, (0, 1, 4000)):
            write_tone(path, n=n, seed=n)
        manifest = tmp_path / "m.txt"
        manifest.write_text("".join(f"{p}\n" for p in paths))
        out = tmp_path / "out"
        assert main(["distort", str(manifest), str(out), "--seed", "17"]) == EXIT_IO
        empty, *written = read_lines(out / "distort_log.jsonl")[1:]
        assert "empty input" in empty["error"]
        digests = [hashlib.sha256(Path(r["clean"]).read_bytes()
                                  + Path(r["distorted"]).read_bytes()).hexdigest()
                   for r in written]
        assert digests == ["aefe4f1b3ac03eb87201cdb78527a0f8d638923bdca9ffd866abe628bbb6bdf7",
                           "1f2c0f108e749be66a465616bda32222e232eadb82cefa8171f8c72e98abc2f6"]

    def test_failed_run_keeps_a_new_log_directory_it_wrote_to(self, tmp_path):
        """Exit 3 removes only the new directories left empty: this one
        holds the log that names the failure."""
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/absent.wav\n")
        log = tmp_path / "logs" / "run" / "distort.jsonl"
        code = main(["distort", str(manifest), str(tmp_path / "out"), "--log", str(log)])
        assert code == EXIT_IO
        assert "error" in read_lines(log)[1]

    def test_missing_manifest_leaves_no_output_directory(self, tmp_path):
        """A manifest that cannot be read exits 3 and leaves none of the
        output directories the run made."""
        code = main(["distort", str(tmp_path / "missing.txt"), str(tmp_path / "a" / "b" / "out")])
        assert code == EXIT_IO
        assert not (tmp_path / "a").exists()

    def test_run_whose_files_all_fail_keeps_its_log(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/absent.wav\n")
        out = tmp_path / "a" / "b" / "out"
        assert main(["distort", str(manifest), str(out)]) == EXIT_IO
        assert "error" in read_lines(out / "distort_log.jsonl")[1]

    def test_bad_distort_setting_is_config_error(self, tmp_path):
        """A bad distort.* value fails the command once, before any file is
        processed, rather than as a per-file I/O failure."""
        write_tone(tmp_path / "x.wav", seed=6)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/x.wav\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("distort.weights = clip:0\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "distort", str(manifest), str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["distort.count_probs = nan,0.5,0.5",
                                         "distort.clip_level = 0", "distort.clip_level = nan",
                                         "distort.clip_level = -1", "distort.clip_level = inf"])
    def test_bad_count_probs_or_clip_level_is_config_error_before_any_file(
            self, tmp_path, monkeypatch, setting):
        """A NaN count probability, or a clip level that is not finite and
        > 0, exits 2 before any input is read (they used to fail every file
        and exit 3, or, for a NaN or negative level, exit 0)."""
        from scorewave import cli

        write_tone(tmp_path / "x.wav", seed=6)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/x.wav\n")
        (tmp_path / "cfg.txt").write_text(setting + "\n")
        reads = []
        monkeypatch.setattr(cli, "read_wav", lambda *a, **k: reads.append(a))
        out = tmp_path / "out"
        code = main(["--config", str(tmp_path / "cfg.txt"), "distort", str(manifest), str(out)])
        assert code == EXIT_CONFIG
        assert reads == []
        assert not out.exists()

    def test_no_usable_type_is_config_error(self, tmp_path):
        """Enabling only pool-needing types without their directory fails
        the command once, before any file is read, not once per file."""
        write_tone(tmp_path / "x.wav", seed=6)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/x.wav\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("distort.weights = additive_noise:1\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "distort", str(manifest), str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()  # no log, so no per-file records

    @pytest.mark.parametrize("pool", ["empty", "missing"])
    def test_pool_dir_without_wavs_is_config_error(self, tmp_path, pool):
        """A noise directory that holds no *.wav (or does not exist) is no
        pool: with only additive_noise enabled the command fails once."""
        write_tone(tmp_path / "x.wav", seed=6)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/x.wav\n")
        noise_dir = tmp_path / "noise"
        if pool == "empty":
            noise_dir.mkdir()
            (noise_dir / "readme.txt").write_text("not audio\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"distort.weights = additive_noise:1\ndistort.noise_dir = {noise_dir}\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "distort", str(manifest), str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()  # no log, so no per-file records

    def test_every_record_carries_engine_version(self, tmp_path):
        """Failed and written records alike name the engine version, and a
        written record replays through chain_from_record."""
        write_tone(tmp_path / "good.wav", seed=7)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/good.wav\n{tmp_path}/absent.wav\n")
        out = tmp_path / "out"
        assert main(["distort", str(manifest), str(out), "--seed", "3"]) == EXIT_IO
        good, failed = read_lines(out / "distort_log.jsonl")[1:]
        assert "error" in failed
        assert good["engine_version"] == failed["engine_version"] == ENGINE_VERSION
        pair = apply_chain(read_wav(good["input"]), chain_from_record(good), ChainConfig())
        np.testing.assert_array_equal(
            np.asarray(pair.distorted.samples, dtype=np.float32),
            read_wav(good["distorted"]).samples)

    def test_pools_loaded_once_per_rate_under_jobs(self, tmp_path, monkeypatch):
        """Worker threads that meet a new sample rate together load its
        noise and RIR pools once between them, not once each."""
        import time

        from scorewave import cli

        pools = {}
        for kind in ("noise", "rir"):
            pools[kind] = tmp_path / kind
            pools[kind].mkdir()
            write_tone(pools[kind] / "a.wav", n=2000, rate=48000, seed=30)
        for i in range(4):
            write_tone(tmp_path / f"f{i}.wav", seed=40 + i)
        manifest = tmp_path / "m.txt"
        manifest.write_text("".join(f"{tmp_path}/f{i}.wav\n" for i in range(4)))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"distort.noise_dir = {pools['noise']}\n"
                       f"distort.rir_dir = {pools['rir']}\n")
        calls = []
        load_pool = cli._load_pool

        def slow_load_pool(directory, rate):
            calls.append((directory, rate))
            time.sleep(0.05)  # widen the window in which a second thread could miss
            return load_pool(directory, rate)

        monkeypatch.setattr(cli, "_load_pool", slow_load_pool)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "distort", str(manifest), str(out),
                     "--jobs", "2"]) == EXIT_OK
        assert sorted(calls) == sorted([(str(pools["noise"]), 16000),
                                        (str(pools["rir"]), 16000)])

    def test_clipped_flags_belong_to_their_own_chains_under_jobs(self, tmp_path, monkeypatch):
        """One loud file (its chain hits the soft-clip guard) and one quiet
        one: with --jobs 2 and both workers held at a barrier until each is
        about to apply its chain, every record still carries its own
        clipped flag, rerun after rerun."""
        import threading

        from scorewave import cli

        write_tone(tmp_path / "loud.wav", seed=1, scale=8.0)
        write_tone(tmp_path / "quiet.wav", seed=2)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/loud.wav\n{tmp_path}/quiet.wav\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("distort.count_probs = 1\ndistort.weights = tremolo:1\n")

        def clipped_flags(out, *jobs):
            assert main(["--config", str(cfg), "distort", str(manifest), str(out),
                         "--seed", "3", *jobs]) == EXIT_OK
            return [r["clipped"] for r in read_lines(out / "distort_log.jsonl")[1:]]

        assert clipped_flags(tmp_path / "seq") == [True, False]
        apply_chain = cli.apply_chain
        for rerun in range(8):
            barrier = threading.Barrier(2, timeout=30)

            def gated(*args, barrier=barrier):
                barrier.wait()
                return apply_chain(*args)

            monkeypatch.setattr(cli, "apply_chain", gated)
            assert clipped_flags(tmp_path / f"par{rerun}", "--jobs", "2") == [True, False]

    def test_jobs_one_is_a_pool_of_one(self, tmp_path, monkeypatch):
        """distort and eval fan out through one path: --jobs 1 runs the
        same thread pool with a single worker."""
        from scorewave import cli

        sizes = []

        class RecordingPool(cli.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        write_tone(tmp_path / "x.wav", seed=4)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path}/x.wav\n")
        assert main(["distort", str(manifest), str(tmp_path / "out")]) == EXIT_OK
        assert main(["eval", "--reference", str(tmp_path / "x.wav"),
                     "--estimate", str(tmp_path / "x.wav"), "--jobs", "1"]) == EXIT_OK
        assert sizes == [1, 1]

    def test_jobs_fanout_matches_sequential(self, tmp_path):
        for i in range(3):
            write_tone(tmp_path / f"f{i}.wav", seed=20 + i)
        manifest = tmp_path / "m.txt"
        manifest.write_text("".join(f"{tmp_path}/f{i}.wav\n" for i in range(3)))
        out_a, out_b = tmp_path / "seq", tmp_path / "par"
        assert main(["distort", str(manifest), str(out_a), "--seed", "2"]) == EXIT_OK
        assert main(["distort", str(manifest), str(out_b), "--seed", "2",
                     "--jobs", "3"]) == EXIT_OK
        for name in sorted(p.name for p in out_a.glob("*.wav")):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# The sidecar's older form: a PCG64 state that names no checkpoint.
BARE_STATE = json.dumps(np.random.default_rng(3).bit_generator.state).encode()


class TestTrain:
    CFG = ("model.hidden = 16\nmodel.n_pairs = 4\nmodel.embed_dim = 16\n"
           "train.batch_size = 32\n")

    def write_cfg(self, tmp_path, extra=""):
        path = tmp_path / "cfg.txt"
        path.write_text(self.CFG + extra)
        return str(path)

    def test_zero_iterations_saves_fresh_init(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        ckpt = tmp_path / "ck.bin"
        code = main(["train", "--out", str(ckpt), "--iterations", "0",
                     "--config", cfg, "--seed", "21"])
        assert code == EXIT_OK
        net, opt_state = load_checkpoint(ckpt)
        assert opt_state is None
        reference = ScoreNet(
            ScoreNetConfig(dim_x=1, dim_c=0, hidden=(16,), n_pairs=4, embed_dim=16),
            np.random.default_rng(21))
        saved, fresh = net.parameters(), reference.parameters()
        assert sorted(saved) == sorted(fresh)
        for key in saved:
            np.testing.assert_array_equal(saved[key], fresh[key])

    def test_training_is_deterministic(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        ck_a, ck_b = tmp_path / "a.bin", tmp_path / "b.bin"
        for ck in (ck_a, ck_b):
            assert main(["train", "--out", str(ck), "--iterations", "6",
                         "--config", cfg, "--seed", "8"]) == EXIT_OK
        assert ck_a.read_bytes() == ck_b.read_bytes()
        trace_a = read_lines(tmp_path / "a.bin.trace.jsonl")
        trace_b = read_lines(tmp_path / "b.bin.trace.jsonl")
        assert trace_a == trace_b
        assert trace_a[0]["command"] == "train"
        assert trace_a[-1]["iterations"] == 6
        assert np.isfinite(trace_a[-1]["final_loss"])

    def test_resume_equals_uninterrupted_run(self, tmp_path):
        """20 + 20 resumed iterations reproduce a straight 40-iteration run
        bit-exactly: parameters, optimizer moments, and step count."""
        cfg = self.write_cfg(tmp_path, "optimizer.total_steps = 40\n")
        straight = tmp_path / "straight.bin"
        assert main(["train", "--out", str(straight), "--iterations", "40",
                     "--config", cfg, "--seed", "33"]) == EXIT_OK
        leg1 = tmp_path / "leg1.bin"
        assert main(["train", "--out", str(leg1), "--iterations", "20",
                     "--config", cfg, "--seed", "33"]) == EXIT_OK
        leg2 = tmp_path / "leg2.bin"
        assert main(["train", "--out", str(leg2), "--iterations", "20",
                     "--resume", str(leg1), "--config", cfg, "--seed", "33"]) == EXIT_OK
        assert straight.read_bytes() == leg2.read_bytes()

    def test_resume_of_zero_iterations_keeps_the_checkpoint(self, tmp_path):
        """--resume with 0 iterations writes the resumed checkpoint and its
        sidecar byte for byte, Adam's moments included, so it resumes again
        (it used to drop the moments, and a further resume exited 2)."""
        cfg = self.write_cfg(tmp_path)
        a, b, c = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "c.bin"
        assert main(["train", "--out", str(a), "--iterations", "3",
                     "--config", cfg, "--seed", "4"]) == EXIT_OK
        assert main(["train", "--out", str(b), "--iterations", "0", "--resume", str(a),
                     "--config", cfg, "--seed", "4"]) == EXIT_OK
        assert b.read_bytes() == a.read_bytes()
        assert Path(f"{b}.rng.json").read_bytes() == Path(f"{a}.rng.json").read_bytes()
        assert main(["train", "--out", str(c), "--iterations", "1", "--resume", str(b),
                     "--config", cfg, "--seed", "4"]) == EXIT_OK

    def test_resume_without_opt_state_rejected(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        ckpt = tmp_path / "init.bin"
        assert main(["train", "--out", str(ckpt), "--iterations", "0",
                     "--config", cfg, "--seed", "1"]) == EXIT_OK
        code = main(["train", "--out", str(tmp_path / "x.bin"), "--iterations", "5",
                     "--resume", str(ckpt), "--config", cfg, "--seed", "1"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("sidecar", [b"{bad", b'{"a": 1}', b"[1, 2]", b"\xff\xfe", BARE_STATE],
                             ids=["not_json", "not_pcg64", "not_a_dict", "not_utf8",
                                  "names_no_checkpoint"])
    def test_resume_with_malformed_rng_sidecar_is_config_error(self, tmp_path, sidecar):
        cfg = self.write_cfg(tmp_path)
        leg1 = tmp_path / "leg1.bin"
        assert main(["train", "--out", str(leg1), "--iterations", "2",
                     "--config", cfg, "--seed", "3"]) == EXIT_OK
        (tmp_path / "leg1.bin.rng.json").write_bytes(sidecar)
        out = tmp_path / "leg2.bin"
        code = main(["train", "--out", str(out), "--iterations", "2",
                     "--resume", str(leg1), "--config", cfg, "--seed", "3"])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_resume_refuses_another_runs_sidecar(self, tmp_path, monkeypatch, capsys):
        """Run B fails writing its sidecar after its checkpoint replaced run
        A's, so A's sidecar sits beside B's checkpoint: --resume exits 2 and
        writes nothing instead of continuing B's network with A's stream."""
        from scorewave import cli

        cfg = self.write_cfg(tmp_path)
        ckpt = tmp_path / "ck.bin"
        assert main(["train", "--out", str(ckpt), "--iterations", "2",
                     "--config", cfg, "--seed", "1"]) == EXIT_OK
        replacing = cli.replacing

        def failing_sidecar(path, *args):
            if str(path).endswith(".rng.json"):
                raise OSError(f"injected: cannot write {path}")
            return replacing(path, *args)

        with monkeypatch.context() as patch:
            patch.setattr(cli, "replacing", failing_sidecar)
            assert main(["train", "--out", str(ckpt), "--iterations", "2",
                         "--config", cfg, "--seed", "2"]) == EXIT_IO
        out = tmp_path / "out" / "resumed.bin"
        capsys.readouterr()
        code = main(["train", "--out", str(out), "--iterations", "2",
                     "--resume", str(ckpt), "--config", cfg, "--seed", "2"])
        assert code == EXIT_CONFIG
        assert "another checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", ["optimizer.peak_lr = nan", "optimizer.peak_lr = inf",
                                         "optimizer.weight_decay = nan",
                                         "optimizer.weight_decay = -0.01"])
    def test_bad_optimizer_setting_is_config_error(self, tmp_path, setting):
        """A non-finite learning rate or a negative or non-finite weight
        decay exits 2 with nothing written (a NaN or infinite one used to
        train a step and exit 4 on its non-finite loss)."""
        cfg = self.write_cfg(tmp_path, setting + "\n")
        out = tmp_path / "out" / "ck.bin"
        code = main(["train", "--out", str(out), "--iterations", "2", "--config", cfg,
                     "--seed", "2"])
        assert code == EXIT_CONFIG
        assert not out.parent.exists()

    @pytest.mark.parametrize("key", ["peak_lr", "weight_decay"])
    def test_resume_from_non_finite_optimizer_header_is_config_error(self, tmp_path, capsys,
                                                                     key):
        """A checkpoint whose optimizer record holds NaN (which Python's json
        reads) is a malformed header: ``train --resume`` exits 2."""
        cfg = self.write_cfg(tmp_path)
        leg1 = tmp_path / "leg1.bin"
        assert main(["train", "--out", str(leg1), "--iterations", "2",
                     "--config", cfg, "--seed", "3"]) == EXIT_OK
        blob = leg1.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        header["opt"][key] = float("nan")
        text = json.dumps(header).encode()
        leg1.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen:])
        out = tmp_path / "leg2.bin"
        code = main(["train", "--out", str(out), "--iterations", "2",
                     "--resume", str(leg1), "--config", cfg, "--seed", "3"])
        assert code == EXIT_CONFIG
        assert "malformed checkpoint header" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("beta1", float("nan")), ("beta2", 2.0),
                                            ("eps", float("nan")),
                                            ("warmup_start_factor", float("nan")),
                                            ("step", -5), ("step", 2.5)])
    def test_resume_from_bad_moment_header_is_config_error(self, tmp_path, capsys, key,
                                                          value):
        """An optimizer record with a beta outside [0, 1), or a non-finite
        eps or warm-up start factor, is a malformed header: ``train
        --resume`` exits 2 with nothing written (it used to train a step into
        non-finite parameters and exit 0). So is a step that is not a whole
        number >= 0 (-5 used to exit 1 on a ZeroDivisionError, 2.5 to exit 0)."""
        cfg = self.write_cfg(tmp_path)
        leg1 = tmp_path / "leg1.bin"
        assert main(["train", "--out", str(leg1), "--iterations", "2",
                     "--config", cfg, "--seed", "3"]) == EXIT_OK
        blob = leg1.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        header["opt"][key] = value
        text = json.dumps(header).encode()
        leg1.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen:])
        out = tmp_path / "leg2.bin"
        code = main(["train", "--out", str(out), "--iterations", "1",
                     "--resume", str(leg1), "--config", cfg, "--seed", "3"])
        assert code == EXIT_CONFIG
        assert "malformed checkpoint header" in capsys.readouterr().err
        assert not out.exists()

    def test_corpus_manifest_training_runs(self, tmp_path):
        write_tone(tmp_path / "c.wav", seed=6, n=2000)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"# corpus\n\n  {tmp_path}/c.wav  \n")
        cfg = self.write_cfg(tmp_path)
        code = main(["train", "--out", str(tmp_path / "ck.bin"), "--iterations", "4",
                     "--data", str(manifest), "--config", cfg, "--seed", "2"])
        assert code == EXIT_OK

    def test_corpus_without_samples_is_config_error_before_any_file(self, tmp_path, capsys):
        """A manifest whose only WAV holds 0 samples exits 2, as one that
        lists no files does, with no checkpoint, rng sidecar or trace."""
        write_wav(tmp_path / "empty.wav", Signal(samples=np.zeros(0), sample_rate=16000),
                  encoding="float32")
        manifest = tmp_path / "corpus.txt"
        manifest.write_text(f"{tmp_path}/empty.wav\n")
        out = tmp_path / "out" / "ck.bin"
        code = main(["train", "--out", str(out), "--iterations", "2", "--data", str(manifest),
                     "--config", self.write_cfg(tmp_path), "--seed", "2"])
        assert code == EXIT_CONFIG
        assert "holds no samples" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("setting, argv", [
        ("", ["--iterations", "-3"]),
        ("train.iterations = -1\n", []),
        ("train.batch_size = 0\n", ["--iterations", "2"]),
        ("train.batch_size = -4\n", ["--iterations", "2"]),
    ], ids=["iterations_flag", "iterations_key", "batch_zero", "batch_negative"])
    def test_bad_size_is_config_error_before_any_file(self, tmp_path, setting, argv):
        """A negative iteration count or a batch below one exits 2 with no
        checkpoint, rng sidecar or trace written."""
        cfg = self.write_cfg(tmp_path, setting)
        out = tmp_path / "out" / "ck.bin"
        code = main(["train", "--out", str(out), *argv, "--config", cfg, "--seed", "2"])
        assert code == EXIT_CONFIG
        assert not out.parent.exists()


# Runs in a fresh interpreter, so the OpenBLAS thread count is read at start-up.
TRAIN_CHILD = """
import sys
from scorewave.cli import main
sys.exit(main(["train", "--out", sys.argv[1], "--iterations", "3", "--seed", "12"]))
"""


class TestTrainHelper:
    """A train run of one or more iterations opens one one-worker pool,
    which takes part of each backward pass and Adam step: no thread is
    left after a return or a raise, and the checkpoint's bytes are the
    helper-less training loop's at one and at two OpenBLAS threads."""

    CFG = TestTrain.CFG

    def train(self, tmp_path, iterations="2"):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(self.CFG)
        return main(["train", "--out", str(tmp_path / "ck.bin"), "--iterations", iterations,
                     "--config", str(cfg), "--seed", "5"])

    @pytest.mark.parametrize("iterations, pools", [("2", [1]), ("0", [])])
    def test_one_pool_of_one_worker_per_run(self, tmp_path, monkeypatch, iterations, pools):
        """Every ThreadPoolExecutor built during the run, wherever its module
        imported the class."""
        sizes, init = [], ThreadPoolExecutor.__init__

        def counting_init(pool, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            init(pool, max_workers, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting_init)
        assert self.train(tmp_path, iterations) == EXIT_OK
        assert sizes == pools

    @pytest.mark.parametrize("outcome", ["return", "non_finite_loss", "raising_task"])
    def test_no_thread_left(self, tmp_path, monkeypatch, capsys, outcome):
        """The handed gradient tasks see one thread beyond the caller, and
        none is left after a normal return, a non-finite loss at iteration
        1 or a task that raises on the helper (whose error is the run's)."""
        before, caller, seen = threading.active_count(), threading.current_thread(), []
        affine_grads, forward, calls = scorenet._affine_grads, ScoreNet.forward, []

        def counting_grads(*terms):
            seen.append(threading.active_count())
            if outcome == "raising_task" and threading.current_thread() is not caller:
                raise TrainingError("injected: helper task failed")
            affine_grads(*terms)

        def nan_at_iteration_1(net, x, c, sigma, train=False):
            out = forward(net, x, c, sigma, train)
            calls.append(train)
            return out * np.nan if outcome == "non_finite_loss" and calls.count(True) == 2 else out

        monkeypatch.setattr(scorenet, "_affine_grads", counting_grads)
        monkeypatch.setattr(ScoreNet, "forward", nan_at_iteration_1)
        code = self.train(tmp_path)
        assert threading.active_count() == before
        assert seen and max(seen) == before + 1
        assert code == (EXIT_OK if outcome == "return" else EXIT_NUMERIC)
        err = capsys.readouterr().err
        if outcome == "non_finite_loss":
            assert "non-finite loss at iteration 1" in err
        if outcome == "raising_task":
            assert "injected: helper task failed" in err

    def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """Default-size net, so Adam splits its 7 slices: the CLI's
        checkpoint from two child interpreters, at 1 and 2 OpenBLAS threads,
        equals the one helper-less ``scorenet.train`` writes."""
        from scorewave.cli import _prior_from, _schedule_from
        from scorewave.scorenet import OptimizerConfig, train

        src = Path(scorenet.__file__).resolve().parents[1]
        got = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            out = tmp_path / f"ck{threads}.bin"
            subprocess.run([sys.executable, "-c", TRAIN_CHILD, str(out)], env=env,
                           capture_output=True, text=True, check=True)
            got[threads] = out.read_bytes()
        cfg, rng = load_config(None), np.random.default_rng(12)
        net = ScoreNet(ScoreNetConfig(dim_x=1, hidden=tuple(cfg["model.hidden"]),
                                      n_pairs=cfg["model.n_pairs"],
                                      embed_dim=cfg["model.embed_dim"]), rng)
        train(net, _prior_from(cfg), _schedule_from(cfg), OptimizerConfig(total_steps=3), 3,
              cfg["train.batch_size"], rng)
        save_checkpoint(tmp_path / "want.bin", net, net.opt_state)
        assert got["1"] == got["2"] == (tmp_path / "want.bin").read_bytes()


def make_noisy_pair(tmp_path, n=400, noise_std=1.0, seed=11, rate=8000):
    rng = np.random.default_rng(seed)
    prior = GmmPrior(weights=[0.3, 0.7], means=[-2.0, 2.0], variances=[0.1, 0.1])
    clean = sample_prior(prior, n, rng).ravel()
    noisy = clean + noise_std * rng.standard_normal(n)
    write_wav(tmp_path / "clean.wav", Signal(samples=clean, sample_rate=rate),
              encoding="float32")
    write_wav(tmp_path / "noisy.wav", Signal(samples=noisy, sample_rate=rate),
              encoding="float32")
    return clean, noisy


def degenerate_clips(tmp_path, n_input, n_reference):
    """--input (noise, empty when n_input is 0) and, unless n_reference is
    None, a silent --reference of n_reference samples, at 8 kHz."""
    write_wav(tmp_path / "in.wav", Signal(samples=np.random.default_rng(4).standard_normal(
        n_input), sample_rate=8000), encoding="float32")
    argv = ["--input", str(tmp_path / "in.wav")]
    if n_reference is not None:
        write_wav(tmp_path / "ref.wav", Signal(samples=np.zeros(n_reference), sample_rate=8000),
                  encoding="float32")
        argv += ["--reference", str(tmp_path / "ref.wav")]
    return argv


DEGENERATE = pytest.mark.parametrize(
    "n_input, n_reference, code",
    [(0, None, EXIT_CONFIG), (0, 0, EXIT_CONFIG), (300, 300, EXIT_NUMERIC)],
    ids=["empty_input", "empty_input_and_reference", "silent_reference"])


class TestEnhance:
    def test_oracle_enhancement_improves_snr(self, tmp_path):
        clean, noisy = make_noisy_pair(tmp_path, n=600, seed=17)
        out = tmp_path / "enh.wav"
        log = tmp_path / "enh.jsonl"
        code = main(["enhance", "--input", str(tmp_path / "noisy.wav"),
                     "--output", str(out), "--reference", str(tmp_path / "clean.wav"),
                     "--log", str(log), "--seed", "5"])
        assert code == EXIT_OK
        enhanced = read_wav(out).samples.astype(np.float64)
        assert snr(clean, enhanced) > snr(clean, noisy) + 0.5
        lines = read_lines(log)
        assert lines[0]["command"] == "enhance"
        assert lines[1]["metrics"]["snr"] > lines[1]["input_snr"]

    def test_input_snr_without_second_evaluation(self, tmp_path, monkeypatch):
        """The input SNR is the plain snr of (reference, input); only the
        enhanced output goes through the full metric report."""
        from scorewave import cli

        clean, noisy = make_noisy_pair(tmp_path, n=300, seed=19)
        calls = []

        def counting_evaluate_pair(*args, **kwargs):
            calls.append(args)
            return evaluate_pair(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_pair", counting_evaluate_pair)
        log = tmp_path / "enh.jsonl"
        code = main(["enhance", "--input", str(tmp_path / "noisy.wav"),
                     "--output", str(tmp_path / "enh.wav"),
                     "--reference", str(tmp_path / "clean.wav"),
                     "--log", str(log), "--seed", "5"])
        assert code == EXIT_OK
        assert len(calls) == 1
        clean32 = clean.astype(np.float32).astype(np.float64)
        noisy32 = noisy.astype(np.float32).astype(np.float64)
        assert read_lines(log)[1]["input_snr"] == snr(clean32, noisy32)

    def test_enhancement_is_deterministic(self, tmp_path):
        make_noisy_pair(tmp_path, n=300, seed=23)
        out_a, out_b = tmp_path / "a.wav", tmp_path / "b.wav"
        for out in (out_a, out_b):
            assert main(["enhance", "--input", str(tmp_path / "noisy.wav"),
                         "--output", str(out), "--seed", "9"]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_reference_rate_mismatch_is_config_error(self, tmp_path):
        make_noisy_pair(tmp_path, n=300, seed=2, rate=8000)
        rng = np.random.default_rng(0)
        write_wav(tmp_path / "ref16k.wav",
                  Signal(samples=rng.standard_normal(300), sample_rate=16000),
                  encoding="float32")
        code = main(["enhance", "--input", str(tmp_path / "noisy.wav"),
                     "--output", str(tmp_path / "o.wav"),
                     "--reference", str(tmp_path / "ref16k.wav"), "--seed", "1"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("ref_rate, ref_n", [(16000, 300), (8000, 299)])
    def test_bad_reference_rejected_before_output(self, tmp_path, ref_rate, ref_n):
        """A reference of another rate or length exits 2 before sampling,
        so no enhanced WAV is left behind."""
        make_noisy_pair(tmp_path, n=300, seed=2, rate=8000)
        rng = np.random.default_rng(0)
        write_wav(tmp_path / "ref.wav",
                  Signal(samples=rng.standard_normal(ref_n), sample_rate=ref_rate),
                  encoding="float32")
        out = tmp_path / "o.wav"
        code = main(["enhance", "--input", str(tmp_path / "noisy.wav"),
                     "--output", str(out), "--reference", str(tmp_path / "ref.wav"),
                     "--seed", "1"])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @DEGENERATE
    def test_degenerate_clip_rejected_before_sampling(self, tmp_path, monkeypatch, n_input,
                                                      n_reference, code):
        """An empty input exits 2, and a reference the metrics would reject
        exits as they do (empty 2, silent 4), before the sampler draws
        anything, so no enhanced WAV is left behind."""
        from scorewave import cli

        draws = []
        monkeypatch.setattr(cli, "langevin_sample", lambda *a, **k: draws.append(a))
        out = tmp_path / "o.wav"
        argv = degenerate_clips(tmp_path, n_input, n_reference)
        assert main(["enhance", *argv, "--output", str(out), "--seed", "1"]) == code
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["sampling.epsilon = nan", "sampling.epsilon = inf",
                                         "sampling.n_steps = 1\nsampling.epsilon = nan",
                                         "enhance.noise_std = nan", "enhance.noise_std = inf",
                                         "enhance.noise_std = -1"])
    def test_bad_sampling_setting_is_config_error_before_sampling(self, tmp_path, monkeypatch,
                                                                  setting):
        """A non-finite epsilon (also at N = 1, whose one denoising step does
        not use it), or a negative or non-finite noise level, exits 2 before
        the sampler draws anything and writes no output."""
        from scorewave import cli

        make_noisy_pair(tmp_path, n=64, seed=3)
        draws = []
        monkeypatch.setattr(cli, "langevin_sample", lambda *a, **k: draws.append(a))
        (tmp_path / "bad.cfg").write_text(setting + "\n")
        out = tmp_path / "o.wav"
        code = main(["--config", str(tmp_path / "bad.cfg"), "enhance",
                     "--input", str(tmp_path / "noisy.wav"), "--output", str(out)])
        assert code == EXIT_CONFIG
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("value", ["", "512:0", "1:1", "512:1024"])
    def test_bad_resolutions_is_config_error_before_output(self, tmp_path, monkeypatch, value):
        """An empty metrics.resolutions, or a resolution without frame >= 2
        and 1 <= hop <= frame, exits 2 when the config is loaded: nothing is
        sampled and no enhanced WAV is written."""
        from scorewave import cli

        make_noisy_pair(tmp_path, n=64, seed=3)
        draws = []
        monkeypatch.setattr(cli, "langevin_sample",
                            lambda *a, **k: draws.append(a) or np.zeros((k["n_samples"], 1)))
        (tmp_path / "bad.cfg").write_text(f"metrics.resolutions = {value}\n")
        out = tmp_path / "o.wav"
        code = main(["--config", str(tmp_path / "bad.cfg"), "enhance",
                     "--input", str(tmp_path / "noisy.wav"), "--output", str(out),
                     "--reference", str(tmp_path / "clean.wav")])
        assert code == EXIT_CONFIG
        assert draws == []
        assert not out.exists()

    def test_nan_checkpoint_is_numeric_error(self, tmp_path):
        net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=0, hidden=(8,), n_pairs=2,
                                      embed_dim=8), np.random.default_rng(0))
        params = net.parameters()
        key = sorted(params)[0]
        params[key][...] = np.nan
        ckpt = tmp_path / "bad.bin"
        save_checkpoint(ckpt, net)
        make_noisy_pair(tmp_path, n=64, seed=3)
        code = main(["enhance", "--input", str(tmp_path / "noisy.wav"),
                     "--output", str(tmp_path / "o.wav"),
                     "--checkpoint", str(ckpt), "--seed", "1"])
        assert code == EXIT_NUMERIC


def save_tiny_checkpoint(path):
    net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=0, hidden=(8,), n_pairs=2,
                                  embed_dim=8), np.random.default_rng(0))
    save_checkpoint(path, net)
    return path


class TestMalformedInputs:
    @pytest.mark.parametrize("damage", ["truncate", "append"])
    def test_damaged_checkpoint_is_config_error(self, tmp_path, damage):
        ckpt = save_tiny_checkpoint(tmp_path / "net.bin")
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:-12] if damage == "truncate" else blob + b"\x00" * 8)
        make_noisy_pair(tmp_path, n=64, seed=3)
        code = main(["enhance", "--input", str(tmp_path / "noisy.wav"),
                     "--output", str(tmp_path / "o.wav"),
                     "--checkpoint", str(ckpt), "--seed", "1"])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "o.wav").exists()

    def test_partial_pcm16_sample_is_io_error(self, tmp_path):
        make_noisy_pair(tmp_path, n=256, seed=4)
        est = tmp_path / "est.wav"
        write_wav(est, Signal(samples=np.zeros(256), sample_rate=8000), encoding="pcm16")
        blob = bytearray(est.read_bytes())
        blob[40:44] = (511).to_bytes(4, "little")  # data size: 255.5 samples
        est.write_bytes(bytes(blob))
        code = main(["eval", "--reference", str(tmp_path / "clean.wav"),
                     "--estimate", str(est)])
        assert code == EXIT_IO

    def test_inconsistent_wav_header_is_io_error(self, tmp_path, capsys):
        """A PCM16 input whose sample-rate field has one byte flipped (it
        reads 2,164,276,864 Hz against a byte rate of 32,000) exits 3 before
        any sampling, and writes no output."""
        noisy = tmp_path / "noisy.wav"
        write_wav(noisy, Signal(samples=np.zeros(100), sample_rate=16000), encoding="pcm16")
        blob = bytearray(noisy.read_bytes())
        blob[27] = 0x81
        noisy.write_bytes(bytes(blob))
        code = main(["enhance", "--input", str(noisy), "--output", str(tmp_path / "o.wav")])
        assert code == EXIT_IO
        assert "inconsistent fmt chunk" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_rate_beyond_the_float32_header_is_io_error(self, tmp_path, capsys):
        """A valid PCM16 input at 1.5 GHz (byte rate 3.0e9) is enhanced, but
        its float32 output's byte rate, 6.0e9, does not fit the header's
        uint32: exit 3 naming the rate, and no output file."""
        noisy = tmp_path / "hi.wav"
        x = 0.1 * np.random.default_rng(0).standard_normal(4000)
        write_wav(noisy, Signal(samples=x, sample_rate=1_500_000_000), encoding="pcm16")
        code = main(["enhance", "--input", str(noisy), "--output", str(tmp_path / "o.wav")])
        assert code == EXIT_IO
        assert "1500000000 Hz" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    @pytest.mark.parametrize("command", ["distort", "train"])
    @pytest.mark.parametrize("content", [None, b"\xff\xfe\x00bad"], ids=["missing", "binary"])
    def test_unreadable_manifest_is_io_error(self, tmp_path, command, content):
        manifest = tmp_path / "m.txt"
        if content is not None:
            manifest.write_bytes(content)
        argv = (["distort", str(manifest), str(tmp_path / "out")] if command == "distort"
                else ["train", "--out", str(tmp_path / "ck.bin"), "--iterations", "1",
                      "--data", str(manifest)])
        assert main(argv) == EXIT_IO


class TestEval:
    def test_values_match_library_metrics(self, tmp_path):
        clean, noisy = make_noisy_pair(tmp_path, n=2048, seed=29)
        out = tmp_path / "eval.jsonl"
        code = main(["eval", "--reference", str(tmp_path / "clean.wav"),
                     "--estimate", str(tmp_path / "noisy.wav"), "--out", str(out)])
        assert code == EXIT_OK
        row = read_lines(out)[1]
        clean32 = clean.astype(np.float32).astype(np.float64)
        noisy32 = noisy.astype(np.float32).astype(np.float64)
        report = evaluate_pair(clean32, noisy32)
        assert row["snr"] == pytest.approx(report.snr, rel=1e-12)
        assert row["si_snr"] == pytest.approx(report.si_snr, rel=1e-12)
        assert row["lsd"] == pytest.approx(report.lsd, rel=1e-12)
        assert row["mrstft"] == pytest.approx(report.mrstft, rel=1e-12)

    def test_pairs_manifest(self, tmp_path):
        make_noisy_pair(tmp_path, n=1024, seed=31)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"{tmp_path}/clean.wav {tmp_path}/noisy.wav\n"
                         f"{tmp_path}/clean.wav {tmp_path}/clean.wav\n")
        out = tmp_path / "eval.jsonl"
        code = main(["eval", "--pairs", str(pairs), "--out", str(out)])
        assert code == EXIT_OK
        rows = read_lines(out)[1:]
        assert len(rows) == 2
        assert rows[1]["snr"] == 100.0  # identical pair hits the dB cap

    @pytest.mark.parametrize("content", [None, b"a.wav b.wav\n\xff\xfe\x00bad\n"],
                             ids=["missing", "binary"])
    def test_unreadable_pairs_manifest_is_io_error(self, tmp_path, content, capsys):
        pairs = tmp_path / "pairs.txt"
        if content is not None:
            pairs.write_bytes(content)
        out = tmp_path / "eval.jsonl"
        assert main(["eval", "--pairs", str(pairs), "--out", str(out)]) == EXIT_IO
        assert "cannot read pairs manifest" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_pairs_line_is_config_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("# header\nonly-one-path.wav\n")
        assert main(["eval", "--pairs", str(pairs)]) == EXIT_CONFIG
        assert f"{pairs}:2: expected 'ref est'" in capsys.readouterr().err

    def test_neither_pairs_nor_files_is_config_error(self, tmp_path):
        assert main(["eval"]) == EXIT_CONFIG

    def test_missing_estimate_is_io_error(self, tmp_path):
        make_noisy_pair(tmp_path, n=256, seed=1)
        code = main(["eval", "--reference", str(tmp_path / "clean.wav"),
                     "--estimate", str(tmp_path / "absent.wav")])
        assert code == EXIT_IO


class TestSweep:
    def test_single_cell_single_row(self, tmp_path):
        make_noisy_pair(tmp_path, n=200, seed=37)
        out = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--input", str(tmp_path / "noisy.wav"),
                     "--n-list", "1", "--eps-list", "1.5",
                     "--out", str(out), "--seed", "3"])
        assert code == EXIT_OK
        rows = read_lines(out)[1:]
        assert len(rows) == 1
        assert rows[0]["n_steps"] == 1
        assert rows[0]["epsilon"] == 1.5
        assert rows[0]["rtf"] > 0

    def test_rtf_grows_with_step_count(self, tmp_path):
        make_noisy_pair(tmp_path, n=400, seed=41)
        out = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--input", str(tmp_path / "noisy.wav"),
                     "--reference", str(tmp_path / "clean.wav"),
                     "--n-list", "1,32", "--eps-list", "2.3",
                     "--out", str(out), "--seed", "3"])
        assert code == EXIT_OK
        rows = read_lines(out)[1:]
        by_n = {row["n_steps"]: row for row in rows}
        assert by_n[32]["rtf"] > by_n[1]["rtf"]
        assert np.isfinite(by_n[32]["snr"])

    def test_checkpoint_loaded_once_per_sweep(self, tmp_path, monkeypatch):
        from scorewave import cli

        ckpt = save_tiny_checkpoint(tmp_path / "net.bin")
        make_noisy_pair(tmp_path, n=64, seed=43)
        calls = []

        def counting_load(path):
            calls.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(cli, "load_checkpoint", counting_load)
        code = main(["sweep", "--input", str(tmp_path / "noisy.wav"),
                     "--checkpoint", str(ckpt), "--n-list", "2,4",
                     "--eps-list", "1.5,2.3", "--out", str(tmp_path / "s.jsonl")])
        assert code == EXIT_OK
        assert len(read_lines(tmp_path / "s.jsonl")) == 1 + 4
        assert calls == [str(ckpt)]

    def test_empty_grid_is_config_error(self, tmp_path):
        make_noisy_pair(tmp_path, n=64, seed=1)
        code = main(["sweep", "--input", str(tmp_path / "noisy.wav"),
                     "--n-list", "", "--eps-list", "1.5"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("ref_rate, ref_n", [(8000, 300), (16000, 299)])
    def test_bad_reference_rejected_before_sampling(self, tmp_path, monkeypatch, ref_rate,
                                                    ref_n):
        """As in enhance: a reference of another rate or length exits 2
        before the sampler draws anything, and no --out is written."""
        from scorewave import cli

        make_noisy_pair(tmp_path, n=300, seed=2, rate=16000)
        write_wav(tmp_path / "ref.wav",
                  Signal(samples=np.random.default_rng(0).standard_normal(ref_n),
                         sample_rate=ref_rate), encoding="float32")
        draws = []
        monkeypatch.setattr(cli, "langevin_sample", lambda *a, **k: draws.append(a))
        out = tmp_path / "s.jsonl"
        code = main(["sweep", "--input", str(tmp_path / "noisy.wav"),
                     "--reference", str(tmp_path / "ref.wav"), "--n-list", "2",
                     "--eps-list", "1.5", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert draws == []
        assert not out.exists()

    @DEGENERATE
    def test_degenerate_clip_rejected_before_sampling(self, tmp_path, monkeypatch, n_input,
                                                      n_reference, code):
        """As in enhance, with or without --reference: an empty input used
        to end in a ZeroDivisionError traceback from its real-time factor."""
        from scorewave import cli

        draws = []
        monkeypatch.setattr(cli, "langevin_sample", lambda *a, **k: draws.append(a))
        out = tmp_path / "s.jsonl"
        argv = degenerate_clips(tmp_path, n_input, n_reference)
        assert main(["sweep", *argv, "--n-list", "2", "--eps-list", "1.5",
                     "--out", str(out)]) == code
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("n_list, eps_list", [("-2", "1.5"), ("4,2", "1.5,nan"),
                                                  ("1", "nan"), ("1", "0.5"), ("a", "1.5"),
                                                  ("2", "x")],
                             ids=["negative_n", "nan_after_a_good_cell", "nan_at_one_step",
                                  "below_one_at_one_step", "n_not_a_number",
                                  "eps_not_a_number"])
    def test_bad_grid_cell_rejected_before_sampling(self, tmp_path, monkeypatch, n_list,
                                                    eps_list):
        """Every (N, epsilon) cell's plan is built before the sampler draws
        anything: a negative N exits 2 (it used to escape as numpy's
        ValueError), and a NaN epsilon exits 2 before the cells ahead of it
        are sampled. An N = 1 cell checks epsilon too, although its one
        denoising step does not use it (it used to write "epsilon": NaN)."""
        from scorewave import cli

        make_noisy_pair(tmp_path, n=64, seed=3)
        draws = []
        real = cli.langevin_sample
        monkeypatch.setattr(cli, "langevin_sample",
                            lambda *a, **k: draws.append(a) or real(*a, **k))
        out = tmp_path / "s.jsonl"
        code = main(["sweep", "--input", str(tmp_path / "noisy.wav"), "--n-list", n_list,
                     "--eps-list", eps_list, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("n_list, eps_list", [("a", "1.5"), ("2", "x"), ("-2", "1.5")])
    def test_bad_grid_rejected_before_the_input_is_read(self, tmp_path, n_list, eps_list):
        """The lists and every cell's plan are checked first: a missing input
        clip is not even opened (that would exit 3)."""
        code = main(["sweep", "--input", str(tmp_path / "missing.wav"), "--n-list", n_list,
                     "--eps-list", eps_list])
        assert code == EXIT_CONFIG

    def test_failed_run_leaves_no_new_directory(self, tmp_path):
        """A run that exits non-zero removes the empty output directories it
        made, deepest first, and leaves a directory that was already there."""
        (tmp_path / "kept").mkdir()
        for out in (tmp_path / "other" / "deeper" / "s.jsonl", tmp_path / "kept" / "s.jsonl"):
            code = main(["sweep", "--input", str(tmp_path / "missing.wav"), "--out", str(out)])
            assert code == EXIT_IO
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert list((tmp_path / "kept").iterdir()) == []

    def test_scores_at_configured_resolutions(self, tmp_path):
        """metrics.resolutions sets the mrstft column, as in enhance and
        eval; the samples, and so the snr column, are unchanged."""
        make_noisy_pair(tmp_path, n=400, seed=41)
        (tmp_path / "res.cfg").write_text("metrics.resolutions = 256:64\n")
        rows = {}
        for name, extra in (("default", []), ("res", ["--config", str(tmp_path / "res.cfg")])):
            out = tmp_path / f"{name}.jsonl"
            assert main([*extra, "sweep", "--input", str(tmp_path / "noisy.wav"),
                         "--reference", str(tmp_path / "clean.wav"), "--n-list", "4",
                         "--eps-list", "1.5", "--out", str(out), "--seed", "3"]) == EXIT_OK
            rows[name] = read_lines(out)[1]
        assert rows["res"]["snr"] == rows["default"]["snr"]
        assert rows["res"]["mrstft"] != rows["default"]["mrstft"]


class TestSamplePrior:
    def test_direct_draws_match_library(self, tmp_path):
        out = tmp_path / "draws.txt"
        code = main(["sample-prior", "--n", "64", "--out", str(out), "--seed", "19"])
        assert code == EXIT_OK
        got = np.loadtxt(out)
        prior = GmmPrior(weights=[0.3, 0.7], means=[-2.0, 2.0],
                         variances=[0.1, 0.1])
        want = sample_prior(prior, 64, np.random.default_rng(19)).ravel()
        np.testing.assert_allclose(got, want, rtol=1e-15)

    @pytest.mark.parametrize("method", ["direct", "langevin"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_is_config_error(self, tmp_path, n, method):
        out = tmp_path / "draws.txt"
        code = main(["sample-prior", "--n", n, "--method", method, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_langevin_method_lands_near_modes(self, tmp_path):
        out = tmp_path / "draws.txt"
        code = main(["sample-prior", "--n", "200", "--method", "langevin",
                     "--out", str(out), "--seed", "19"])
        assert code == EXIT_OK
        draws = np.loadtxt(out)
        assert draws.shape == (200,)
        # every draw should sit within a few prior standard deviations of
        # one of the mixture means at +-2
        assert np.all(np.minimum(np.abs(draws - 2.0), np.abs(draws + 2.0)) < 2.0)


# command -> (argv given the inputs' directory d and the parent p of the
# output under test, the cli-level function that does the command's work)
OUTPUT_PARENT_CASES = {
    "distort": (lambda d, p: ["distort", f"{d}/m.txt", f"{d}/pairs", "--log", f"{p}/o.jsonl"],
                "apply_chain"),
    "train": (lambda d, p: ["train", "--iterations", "2", "--out", f"{d}/ck.bin",
                            "--trace", f"{p}/t.jsonl"], "train"),
    "enhance": (lambda d, p: ["enhance", "--input", f"{d}/noisy.wav", "--output", f"{d}/e.wav",
                              "--log", f"{p}/o.jsonl"], "langevin_sample"),
    "eval": (lambda d, p: ["eval", "--reference", f"{d}/clean.wav", "--estimate",
                           f"{d}/noisy.wav", "--out", f"{p}/s.jsonl"], "evaluate_pair"),
    "sweep": (lambda d, p: ["sweep", "--input", f"{d}/noisy.wav", "--n-list", "2",
                            "--eps-list", "1.5", "--out", f"{p}/s.jsonl"], "langevin_sample"),
    "sample-prior": (lambda d, p: ["sample-prior", "--n", "8", "--out", f"{d}/draws.txt",
                                   "--log", f"{p}/l.jsonl"], "sample_prior"),
}


class TestOutputParents:
    """Every command creates the parent directory of each output before any
    work. eval, enhance --log, sweep, distort --log, train --trace and
    sample-prior --log used to do all their work first and then exit 3 on a
    missing directory, enhance leaving its WAV without a log."""

    def setup_inputs(self, tmp_path):
        make_noisy_pair(tmp_path, n=256, seed=5)
        (tmp_path / "m.txt").write_text(f"{tmp_path}/clean.wav\n")

    @pytest.mark.parametrize("command", sorted(OUTPUT_PARENT_CASES))
    def test_missing_parent_is_created(self, tmp_path, command):
        self.setup_inputs(tmp_path)
        argv, _ = OUTPUT_PARENT_CASES[command]
        parent = tmp_path / "missing" / "deeper"
        assert main(argv(tmp_path, parent)) == EXIT_OK
        assert len(list(parent.iterdir())) == 1

    @pytest.mark.parametrize("command", sorted(OUTPUT_PARENT_CASES))
    def test_unplaceable_output_exits_3_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                        command):
        """A parent that is a regular file cannot be created: exit 3, with
        the work never started and nothing written."""
        from scorewave import cli

        self.setup_inputs(tmp_path)
        argv, work = OUTPUT_PARENT_CASES[command]
        calls = []
        real = getattr(cli, work)
        monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a) or real(*a, **k))
        (tmp_path / "blocked").write_text("a regular file\n")
        before = sorted(tmp_path.rglob("*"))
        assert main(argv(tmp_path, tmp_path / "blocked")) == EXIT_IO
        assert "blocked" in capsys.readouterr().err
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before
