"""The benchmark's workloads: seeded inputs, the commands of one round, the
set-up probe command, and the correctness checks.

Each workload is a closed loop of ``scorewave`` commands in one process.
``prepare`` writes the inputs for a benchmark seed and returns a ``Plan``;
``check`` inspects the outputs the last round left behind (every round
wrote the same bytes, or the worker counted a failure) and returns one
``(name, passed, detail)`` per check. Checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

# Sizes. Chosen so one round takes 0.5-2.5 s here (2-core Xeon,
# OpenBLAS pinned to one thread), which gives several rounds per run.
DISTORT_CLIPS = 12
DISTORT_CLIP_S = 10.0
# Fixed CLI seed for chain sampling: the benchmark seed varies the audio
# and the asset pools, while the chain mix, which sets the cost, stays the
# same from run to run. 732 is the smallest seed whose 12 chains cover all
# ten families and the five primitives that get their own metric.
DISTORT_CHAIN_SEED = 732
CKPT_ROWS = 1024          # 64 ms at 16 kHz; activations of one call ~12 MB > 2 MB L2
CKPT_TRAIN_STEPS = 200
CKPT_TRAIN_SEED = 0       # fixed, so the golden case can share the checkpoint
ORACLE_ROWS = 48_000      # 3 s at 16 kHz
ORACLE_REALIZATIONS = 2
ORACLE_MIN_SNR_GAIN_DB = 1.5
TRAIN_ITERS = (100, 100)  # train, then --resume
HELDOUT_ROWS = 8192       # fixed DSM batch the train check scores each network on
EVAL_PAIRS = 16
EVAL_PAIR_S = 10.0
TINY_SAMPLES = 4000      # 0.25 s: long enough to reach the first syllable
GOLDEN_SEED = 20_220_607
GOLDEN_CKPT_ROWS = 64
RTOL = 1e-9               # float64 results: room for BLAS reassociation
F32_RTOL = 2.0 ** -22     # float32 WAV samples: two units in the last place

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass
class Plan:
    commands: list[list[str]]   # one round
    outputs: list[str]          # files and directories a round writes
    ops_per_round: float        # units of work in one round
    jobs: int                   # --jobs of the round's commands
    setup: list[str]            # command on the smallest valid input
    extra: dict = field(default_factory=dict)


def _write_lines(path: Path, lines) -> Path:
    path.write_text("".join(f"{line}\n" for line in lines))
    return path


def _snr_db(ref: np.ndarray, est: np.ndarray) -> float:
    return 10.0 * math.log10(float(np.sum(ref**2)) / float(np.sum((ref - est) ** 2)))


def _close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(b), 1e-30)))


def _read(path) -> np.ndarray:
    from scorewave.signal import read_wav
    return read_wav(path, downmix=True).samples


def _run_cli(argv) -> int:
    import contextlib
    import io

    from scorewave.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# distort


def prepare_distort(seed: int, work: Path) -> Plan:
    rng = np.random.default_rng(seed)
    clips = inputs.write_distort_inputs(rng, work / "in", DISTORT_CLIPS, DISTORT_CLIP_S,
                                        n_noise=4, noise_s=3.0, n_rir=6)
    config = _write_lines(work / "distort.cfg", [f"distort.noise_dir = {work / 'in' / 'noise'}",
                                                 f"distort.rir_dir = {work / 'in' / 'rir'}"])
    manifest = _write_lines(work / "manifest.txt", clips)
    tiny = work / "tiny.wav"
    inputs.write_wav(tiny, inputs.speech_like(rng, 0.25), inputs.SPEECH_RATE, "pcm16")
    tiny_manifest = _write_lines(work / "tiny_manifest.txt", [tiny])
    common = ["--jobs", "2", "--config", str(config), "--seed", str(DISTORT_CHAIN_SEED), "distort"]
    return Plan(
        commands=[common + [str(manifest), str(work / "out")]],
        outputs=[str(work / "out")],
        ops_per_round=DISTORT_CLIPS,
        jobs=2,
        setup=common + [str(tiny_manifest), str(work / "tiny_out")],
        extra={"manifest": [str(c) for c in clips], "work": str(work)},
    )


def distort_records(plan: Plan) -> list[dict]:
    lines = (Path(plan.outputs[0]) / "distort_log.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines[1:]]


def check_distort(plan: Plan) -> list[tuple]:
    from scorewave.distort import ChainConfig, apply_chain, chain_from_json
    from scorewave.signal import read_wav, resample

    def pool(directory):
        return tuple(resample(read_wav(p, downmix=True), inputs.SPEECH_RATE).samples
                     for p in sorted(Path(directory).glob("*.wav")))

    work = Path(plan.extra["work"])
    cfg = ChainConfig(noise_pool=pool(work / "in" / "noise"), rir_pool=pool(work / "in" / "rir"))
    records = distort_records(plan)
    manifest = plan.extra["manifest"]
    results = [("distort.one_pair_per_line",
                [r.get("file_index") for r in records] == list(range(len(manifest)))
                and [r.get("input") for r in records] == manifest, f"{len(records)} records")]
    for rec in records:
        name = f"distort.replay[{rec.get('file_index')}]"
        if "error" in rec:
            results.append((name, False, rec["error"]))
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pair = apply_chain(read_wav(rec["input"], downmix=True),
                               chain_from_json(json.dumps(rec["chain"])), cfg)
        same = all(np.array_equal(_read(rec[key]), sig.samples.astype(np.float32).astype(np.float64))
                   for key, sig in (("clean", pair.clean), ("distorted", pair.distorted)))
        results.append((name, same and pair.offset == rec["offset"], "bit-exact replay"))
    return results


# ---------------------------------------------------------------------------
# enhance: one leg through a trained dim_c=1 checkpoint, one through the
# analytic posterior oracle


def prepare_enhance(seed: int, work: Path) -> Plan:
    work.mkdir(parents=True, exist_ok=True)
    ckpt = work / "net.bin"
    inputs.train_conditional_checkpoint(ckpt, CKPT_TRAIN_SEED, CKPT_TRAIN_STEPS)
    rng = np.random.default_rng(seed)
    ckpt_clean, ckpt_noisy = inputs.write_gmm_pair(rng, work, "ckpt", CKPT_ROWS)
    oracle_clean, oracle_noisy = inputs.write_gmm_pair(rng, work, "oracle", ORACLE_ROWS)
    tiny_clean, tiny_noisy = inputs.write_gmm_pair(rng, work, "tiny", 16)
    config = _write_lines(work / "oracle.cfg", [f"sampling.n_realizations = {ORACLE_REALIZATIONS}"])
    ckpt_leg = ["--seed", str(seed), "enhance", "--checkpoint", str(ckpt)]
    oracle_leg = ["--config", str(config), "--seed", str(seed), "enhance"]
    return Plan(
        commands=[ckpt_leg + ["--input", str(ckpt_noisy), "--reference", str(ckpt_clean),
                              "--output", str(work / "ckpt.out.wav"),
                              "--log", str(work / "ckpt.out.jsonl")],
                  oracle_leg + ["--input", str(oracle_noisy), "--reference", str(oracle_clean),
                                "--output", str(work / "oracle.out.wav"),
                                "--log", str(work / "oracle.out.jsonl")]],
        outputs=[str(work / f"{leg}.out.{ext}") for leg in ("ckpt", "oracle")
                 for ext in ("wav", "jsonl")],
        ops_per_round=(CKPT_ROWS + ORACLE_ROWS) / inputs.SPEECH_RATE,
        jobs=1,
        # The checkpoint leg's probe also covers the checkpoint load.
        setup=ckpt_leg + ["--input", str(tiny_noisy), "--reference", str(tiny_clean),
                          "--output", str(work / "tiny_out.wav")],
        extra={"work": str(work), "ckpt": str(ckpt), "ckpt_noisy": str(ckpt_noisy),
               "oracle_clean": str(oracle_clean), "oracle_noisy": str(oracle_noisy),
               "legs": {"enhance_ckpt_rtf": CKPT_ROWS / inputs.SPEECH_RATE,
                        "enhance_oracle_rtf": ORACLE_ROWS / inputs.SPEECH_RATE}},
    )


def golden_enhance_ckpt(work: Path, ckpt: Path) -> dict:
    clean, noisy = inputs.write_gmm_pair(np.random.default_rng(GOLDEN_SEED), work / "golden",
                                         "golden", GOLDEN_CKPT_ROWS)
    out, log = work / "golden" / "out.wav", work / "golden" / "out.jsonl"
    rc = _run_cli(["--seed", "0", "enhance", "--checkpoint", ckpt, "--input", noisy,
                   "--reference", clean, "--output", out, "--log", log])
    if rc != 0:
        return {"exit_code": rc}
    record = json.loads(log.read_text().splitlines()[1])
    return {"exit_code": 0, "samples": _read(out).tolist(), "metrics": record["metrics"]}


def check_enhance(plan: Plan) -> list[tuple]:
    out = _read(plan.outputs[0])
    noisy = _read(plan.extra["ckpt_noisy"])
    got = golden_enhance_ckpt(Path(plan.extra["work"]), Path(plan.extra["ckpt"]))
    want = json.loads(GOLDEN_PATH.read_text())["enhance_ckpt"]
    golden_ok = (got["exit_code"] == 0 and _close(got["samples"], want["samples"], F32_RTOL)
                 and all(_close(got["metrics"][k], want["metrics"][k], RTOL) for k in want["metrics"]))
    results = [
        ("enhance.ckpt.output_shape", out.shape == noisy.shape and bool(np.all(np.isfinite(out))),
         f"{out.size} samples"),
        ("enhance.ckpt.golden", golden_ok, "fixed-seed clip matches the recorded output"),
    ]
    clean, noisy, out = (_read(plan.extra["oracle_clean"]), _read(plan.extra["oracle_noisy"]),
                         _read(plan.outputs[2]))
    if out.shape != clean.shape or not np.all(np.isfinite(out)):
        return results + [("enhance.oracle.snr_gain", False, f"bad output shape {out.shape}")]
    before, after = _snr_db(clean, noisy), _snr_db(clean, out)
    return results + [("enhance.oracle.snr_gain", after - before >= ORACLE_MIN_SNR_GAIN_DB,
                       f"{before:.2f} dB -> {after:.2f} dB (floor +{ORACLE_MIN_SNR_GAIN_DB} dB)")]


# ---------------------------------------------------------------------------
# train on the GMM prior, then resume


def prepare_train(seed: int, work: Path) -> Plan:
    work.mkdir(parents=True, exist_ok=True)
    first, second = TRAIN_ITERS
    # Default config, except that the schedule spans both commands, so the
    # resumed half still trains (past total_steps the learning rate is 0).
    config = _write_lines(work / "train.cfg", [f"optimizer.total_steps = {first + second}"])
    common = ["--config", str(config), "--seed", str(seed), "train"]
    a, b = work / "a.bin", work / "b.bin"
    return Plan(
        commands=[common + ["--out", str(a), "--iterations", str(first)],
                  common + ["--out", str(b), "--resume", str(a), "--iterations", str(second)]],
        outputs=[str(a), str(b), f"{a}.rng.json", f"{b}.rng.json",
                 f"{a}.trace.jsonl", f"{b}.trace.jsonl"],
        ops_per_round=first + second,
        jobs=1,
        setup=common + ["--out", str(work / "tiny.bin"), "--iterations", "0"],
    )


def heldout_loss(path) -> float:
    """DSM loss of a checkpoint on a fixed batch of prior samples, with
    fixed noise levels and noise: the same batch for every network."""
    from scorewave.schedule import NoiseSchedule
    from scorewave.scorenet import dsm_loss_and_grads, load_checkpoint

    x0 = inputs.gmm_clip(np.random.default_rng(GOLDEN_SEED), HELDOUT_ROWS)[0][:, None]
    net, _ = load_checkpoint(path)
    noise = np.random.default_rng(GOLDEN_SEED + 1)
    return dsm_loss_and_grads(net, x0, None, NoiseSchedule(), noise)[0]


def check_train(plan: Plan) -> list[tuple]:
    from scorewave.scorenet import load_checkpoint, save_checkpoint

    traces = []
    for path in plan.outputs[4:]:
        rows = [json.loads(line) for line in Path(path).read_text().splitlines()[1:]]
        traces.append(np.array([r["loss"] for r in rows if "iteration" in r]))
    finite = all(t.size == n and np.all(np.isfinite(t)) for t, n in zip(traces, TRAIN_ITERS))
    # The per-step losses are too noisy over 100 steps to show the fall
    # (per-step sd ~0.06 against a fall of ~0.05), so the fall is measured
    # on one fixed batch: untrained network (the set-up probe's
    # --iterations 0 checkpoint), then after each command.
    untrained = Path(plan.setup[plan.setup.index("--out") + 1])
    if not untrained.is_file():
        _run_cli(plan.setup)
    losses = [heldout_loss(p) for p in (untrained, plan.outputs[0], plan.outputs[1])]
    falls = losses[0] > losses[1] > losses[2]
    ckpt = Path(plan.outputs[1])
    net, opt = load_checkpoint(ckpt)
    with tempfile.TemporaryDirectory(dir=ckpt.parent) as tmp:
        again = Path(tmp) / "again.bin"
        save_checkpoint(again, net, opt)
        same = again.read_bytes() == ckpt.read_bytes()
    params_ok = all(np.all(np.isfinite(p)) for p in net.parameters().values())
    return [
        ("train.loss_finite", finite, "both loss traces"),
        ("train.loss_falls", falls,
         "fixed-batch DSM loss untrained -> first -> resumed: "
         + " -> ".join(f"{v:.4f}" for v in losses)),
        ("train.checkpoint_roundtrip", same and params_ok and opt is not None
         and opt.step == sum(TRAIN_ITERS), "load_checkpoint + save_checkpoint reproduces the bytes"),
    ]


# ---------------------------------------------------------------------------
# eval


def prepare_eval(seed: int, work: Path) -> Plan:
    rng = np.random.default_rng(seed)
    pairs = inputs.write_eval_pairs(rng, work / "pairs", EVAL_PAIRS, EVAL_PAIR_S)
    tiny = inputs.write_eval_pairs(rng, work / "tiny", 2, TINY_SAMPLES / inputs.SPEECH_RATE)
    pairs_file = _write_lines(work / "pairs.txt", [f"{r} {e}" for r, e in pairs])
    tiny_file = _write_lines(work / "tiny_pairs.txt", [f"{r} {e}" for r, e in tiny])
    return Plan(
        commands=[["--jobs", "2", "eval", "--pairs", str(pairs_file), "--out", str(work / "scores.jsonl")]],
        outputs=[str(work / "scores.jsonl")],
        ops_per_round=EVAL_PAIRS,
        jobs=2,
        setup=["--jobs", "2", "eval", "--pairs", str(tiny_file), "--out", str(work / "tiny.jsonl")],
        extra={"pairs": [[str(r), str(e)] for r, e in pairs], "work": str(work)},
    )


def golden_eval(work: Path) -> list[dict] | None:
    pairs = inputs.write_eval_pairs(np.random.default_rng(GOLDEN_SEED), work / "golden", 2, 1.0)
    pairs_file = _write_lines(work / "golden_pairs.txt", [f"{r} {e}" for r, e in pairs])
    out = work / "golden_scores.jsonl"
    if _run_cli(["eval", "--pairs", pairs_file, "--out", out]) != 0:
        return None
    keys = ("snr", "si_snr", "lsd", "mrstft", "mrstft_parts")
    return [{k: row[k] for k in keys} for row in map(json.loads, out.read_text().splitlines()[1:])]


def check_eval(plan: Plan) -> list[tuple]:
    rows = [json.loads(line) for line in Path(plan.outputs[0]).read_text().splitlines()[1:]]
    pairs = plan.extra["pairs"]
    results = [("eval.one_row_per_pair", [[r["reference"], r["estimate"]] for r in rows] == pairs,
                f"{len(rows)} rows")]
    for i, (row, (ref_path, est_path)) in enumerate(zip(rows, pairs)):
        finite = all(np.all(np.isfinite(row[k])) for k in ("snr", "si_snr", "lsd", "mrstft", "mrstft_parts"))
        ok = finite
        if i % 2 == 0:  # same-rate pair: check SNR and SI-SNR from the WAVs directly
            ref, est = _read(ref_path), _read(est_path)
            target = (np.dot(est, ref) / np.dot(ref, ref)) * ref
            ok = ok and _close(row["snr"], _snr_db(ref, est), RTOL) and _close(
                row["si_snr"], 10.0 * math.log10(np.sum(target**2) / np.sum((est - target) ** 2)), RTOL)
        results.append((f"eval.row[{i}]", bool(ok), "finite; SNR/SI-SNR recomputed"))
    got = golden_eval(Path(plan.extra["work"]))
    want = json.loads(GOLDEN_PATH.read_text())["eval"]
    golden_ok = got is not None and len(got) == len(want) and all(
        _close(g[k], w[k], RTOL) for g, w in zip(got, want) for k in w)
    results.append(("eval.golden", golden_ok, "fixed-seed pairs match the recorded metrics"))
    return results


WORKLOADS = {
    "distort": (prepare_distort, check_distort),
    "enhance": (prepare_enhance, check_enhance),
    "train": (prepare_train, check_train),
    "eval": (prepare_eval, check_eval),
}


def record_golden(work: Path) -> dict:
    """Golden values for the checks above, from the code as it is now."""
    work.mkdir(parents=True, exist_ok=True)
    ckpt = work / "net.bin"
    inputs.train_conditional_checkpoint(ckpt, CKPT_TRAIN_SEED, CKPT_TRAIN_STEPS)
    return {"enhance_ckpt": golden_enhance_ckpt(work, ckpt), "eval": golden_eval(work)}
