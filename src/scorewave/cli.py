"""Command-line surface: ``scorewave <command>``.

Commands
    distort       degrade a manifest of WAV files into (clean, distorted)
                  pairs plus a replayable JSON-lines chain log
    train         DSM-train the toy score network on a GMM task or on
                  amplitude samples from a WAV corpus; writes a checkpoint
                  and a loss trace
    enhance       conditional denoising of a WAV's samples through the
                  annealed Langevin sampler (analytic posterior oracle by
                  default, or a trained checkpoint)
    eval          objective metrics for (reference, estimate) WAV pairs
    sweep         quality-vs-real-time-factor grid over (N, epsilon)
    sample-prior  draw samples from the configured mixture prior

Global flags: ``--config FILE`` (plain ``key = value`` lines, ``#``
comments, dotted section keys, unknown keys rejected), ``--seed N``
(overrides the config seed), ``--jobs N`` (fan-out across independent
files; commands that measure wall time stay sequential).

Every command echoes its fully-resolved configuration and seed as the
first line of its JSON-lines log, so any output can be replayed from its
log alone. Every command creates the directory of each output it names
(the parent of an output file, distort's out_dir itself) before any work,
so an output that cannot be placed exits 3 with nothing written; a run
that does not exit 0 removes the directories it made, if they are still
empty.

Exit codes: 0 success; 2 configuration error; 3 I/O error (including
per-file distortion failures); 4 numeric failure (non-finite loss or
iterate, undefined metric).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .diffusion import langevin_sample
from .distort import (
    ENGINE_VERSION,
    PRIMITIVES,
    ChainConfig,
    apply_chain,
    sample_chain,
)
from .errors import AudioError, ConfigError, NumericError
from .files import replacing
from .metrics import DEFAULT_RESOLUTIONS, _pair, evaluate_pair, snr
from .oracle import GmmPrior, posterior_score, score_function
from .oracle import sample as sample_prior
from .schedule import NoiseSchedule, make_plan
from .scorenet import (
    OptimizerConfig,
    ScoreNet,
    ScoreNetConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .signal import Signal, read_wav, resample, write_wav

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# Configuration


def _p_ints(s):
    return tuple(int(v) for v in str(s).split(",") if v.strip())


def _p_floats(s):
    return tuple(float(v) for v in str(s).split(",") if v.strip())


def _p_resolutions(s):
    out = []
    for item in str(s).split(","):
        if not item.strip():
            continue
        frame, hop = (int(v) for v in item.split(":"))
        if not (frame >= 2 and 1 <= hop <= frame):
            raise ValueError(f"need frame >= 2 and 1 <= hop <= frame, got {item.strip()!r}")
        out.append((frame, hop))
    if not out:
        raise ValueError("need at least one frame:hop resolution")
    return tuple(out)


def _p_weights(s):
    out = {}
    for item in str(s).split(","):
        if not item.strip():
            continue
        name, w = item.split(":")
        out[name.strip()] = float(w)
    return out


# key -> (parser, default). Values given in config files go through the
# parser; defaults are stored already parsed, and those the library also
# defaults are read from it, so the two cannot drift apart.
CONFIG_KEYS = {
    "seed": (int, 0),
    "schedule.sigma_min": (float, NoiseSchedule.sigma_min),
    "schedule.sigma_max": (float, NoiseSchedule.sigma_max),
    "sampling.n_steps": (int, 64),
    "sampling.epsilon": (float, 2.3),
    "sampling.n_realizations": (int, 1),
    "model.hidden": (_p_ints, ScoreNetConfig.hidden),
    "model.n_pairs": (int, ScoreNetConfig.n_pairs),
    "model.embed_dim": (int, ScoreNetConfig.embed_dim),
    "optimizer.peak_lr": (float, OptimizerConfig.peak_lr),
    "optimizer.warmup_frac": (float, OptimizerConfig.warmup_frac),
    "optimizer.weight_decay": (float, OptimizerConfig.weight_decay),
    "optimizer.total_steps": (int, 0),  # 0: use train.iterations
    "train.iterations": (int, 2000),
    "train.batch_size": (int, 128),
    "train.gmm_weights": (_p_floats, (0.3, 0.7)),
    "train.gmm_means": (_p_floats, (-2.0, 2.0)),
    "train.gmm_variances": (_p_floats, (0.1, 0.1)),
    "enhance.noise_std": (float, 1.0),
    "distort.count_probs": (_p_floats, ChainConfig.count_probs),
    "distort.clip_level": (float, ChainConfig.clip_level),
    "distort.noise_dir": (str, ""),
    "distort.rir_dir": (str, ""),
    "distort.weights": (_p_weights, {}),
    "metrics.resolutions": (_p_resolutions, DEFAULT_RESOLUTIONS),
}


def _read_lines(path, error, what: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is neither blank nor
    a ``#`` comment; a file that cannot be read or decoded raises ``error``."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    return [(lineno, line) for lineno, line in enumerate(map(str.strip, lines), start=1)
            if line and not line.startswith("#")]


def load_config(path: str | None) -> dict:
    """The resolved configuration, key -> value: defaults overridden by a
    config file."""
    values = {key: default for key, (_, default) in CONFIG_KEYS.items()}
    if path is not None:
        for lineno, line in _read_lines(path, ConfigError, "config file"):
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            parser, _ = CONFIG_KEYS[key]
            try:
                values[key] = parser(value)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _prior_from(cfg: dict) -> GmmPrior:
    return GmmPrior(
        weights=np.array(cfg["train.gmm_weights"]),
        means=np.array(cfg["train.gmm_means"]),
        variances=np.array(cfg["train.gmm_variances"]),
    )


def _schedule_from(cfg: dict) -> NoiseSchedule:
    return NoiseSchedule(sigma_min=cfg["schedule.sigma_min"],
                         sigma_max=cfg["schedule.sigma_max"])


def _chain_config_from(cfg: dict) -> ChainConfig:
    """The distort.* settings without asset pools; the pools are loaded per
    sample rate. Rejects a type set in which every enabled type needs a pool
    whose directory is unset, missing or holds no *.wav file."""
    kwargs = {
        "count_probs": tuple(cfg["distort.count_probs"]),
        "clip_level": cfg["distort.clip_level"],
    }
    if cfg["distort.weights"]:
        kwargs["weights"] = dict(cfg["distort.weights"])
    chain_cfg = ChainConfig(**kwargs)
    pool_dirs = {"noise_pool": cfg["distort.noise_dir"], "rir_pool": cfg["distort.rir_dir"]}
    usable = {need: bool(d) and any(Path(d).glob("*.wav")) for need, d in pool_dirs.items()}
    if not any(PRIMITIVES[name].needs is None or usable[PRIMITIVES[name].needs]
               for name in chain_cfg.weights):
        raise ConfigError("no enabled distortion type is usable: every one needs an asset "
                          "pool whose distort.*_dir is unset or holds no *.wav file")
    return chain_cfg


def _read_manifest(path) -> list[str]:
    """The stripped lines of a manifest, without blanks and # comments."""
    return [line for _, line in _read_lines(path, AudioError, "manifest")]


def _load_pool(directory: str, rate: int) -> tuple:
    if not directory:
        return ()
    entries = []
    for path in sorted(Path(directory).glob("*.wav")):
        sig = read_wav(path, downmix=True)
        if sig.sample_rate != rate:
            sig = resample(sig, rate)
        entries.append(sig.samples)
    return tuple(entries)


def _header(command: str, cfg: dict, seed: int) -> dict:
    return {"command": command, "seed": seed, "config": dict(sorted(cfg.items()))}


@functools.cache
def _library_versions() -> tuple[tuple[str, str], ...]:
    """numpy's and scipy's releases, from package metadata (imports neither)."""
    from importlib import metadata

    return tuple((name, metadata.version(name)) for name in ("numpy", "scipy"))


def _make_parents(args, created: list) -> None:
    """Create the directory of every output that ``args.outputs`` names (None
    skipped): an ``*_dir`` output itself, else the output file's parent.
    Each directory made is appended to ``created``, outermost first. Run
    before a command does any work, so an output that cannot be placed (its
    parent is a regular file, say) exits 3 with nothing written."""
    for name in args.outputs:
        if path := getattr(args, name):
            directory = Path(path) if name.endswith("_dir") else Path(path).parent
            missing = [d for d in (directory, *directory.parents) if not d.exists()]
            directory.mkdir(parents=True, exist_ok=True)
            created.extend(reversed(missing))


def _write_jsonl(path, lines) -> None:
    with replacing(path, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")


# ---------------------------------------------------------------------------
# Enhancement core (shared by enhance and sweep)


def _enhancement_score(observed: np.ndarray, cfg: dict, checkpoint: str | None):
    """(score_fn, c) for enhancing ``observed``: a trained checkpoint's
    network, or the analytic per-sample posterior. Built once per command."""
    n_realizations = cfg["sampling.n_realizations"]
    if n_realizations < 1:
        raise ConfigError(f"n_realizations must be >= 1, got {n_realizations}")
    if checkpoint is None:
        return posterior_score(_prior_from(cfg), observed, cfg["enhance.noise_std"]), None
    net, _ = load_checkpoint(checkpoint)
    if net.config.dim_x != 1:
        raise ConfigError(
            f"enhance needs a dim_x=1 checkpoint, got dim_x={net.config.dim_x}")
    if net.config.dim_c not in (0, 1):
        raise ConfigError(
            f"enhance needs dim_c in {{0, 1}}, got dim_c={net.config.dim_c}")
    return net.forward, (observed[:, None] if net.config.dim_c == 1 else None)


def _read_clips(args) -> tuple[Signal, Signal | None]:
    """The --input clip and the --reference clip or None, checked before any
    sampling: an empty input, or a reference of another rate or length,
    exits 2, and a reference the metrics would reject exits as they do."""
    noisy = read_wav(args.input, downmix=True)
    if not len(noisy):
        raise ConfigError(f"input {args.input} holds no samples")
    if not args.reference:
        return noisy, None
    ref = read_wav(args.reference, downmix=True)
    if ref.sample_rate != noisy.sample_rate:
        raise ConfigError(f"reference rate {ref.sample_rate} != input rate {noisy.sample_rate}")
    if len(ref) != len(noisy):
        raise ConfigError(f"reference length {len(ref)} != input length {len(noisy)}")
    _pair(ref.samples, noisy.samples)  # the metrics' own checks, before any output exists
    return noisy, ref


# The toolkit's one realization-averaging loop. It calls the sampler through
# this module's name ``langevin_sample``, which perfbench/tracing.py patches
# to time the sampler and its score calls. It hands the helper its pairs
# through ``helper.map``, not ``diffusion.handing``: the tracer's pool
# overrides only ``map``, so that work nests under the command's span.
def _enhance_samples(observed: np.ndarray, cfg: dict, score, plan, rng) -> np.ndarray:
    """Average of sampling.n_realizations (R) Langevin samples along ``plan``
    through ``score`` = :func:`_enhancement_score` of ``observed``, one per
    child of ``rng.spawn(R)`` (spawned two at a time: the same children).

    A call opens the one helper of the rule above COMMANDS. Pairs run the
    lower index on the calling thread, the other on the helper, each
    drawing its noise inline (a draw the helper's own run handed it would
    wait on itself); a last odd one (all of R = 1) draws its next noise
    block on the helper. Outputs are added in index order, so the
    bits equal the sequential loop's; the lowest failing index's error is
    raised.
    """
    score_fn, c = score
    n = observed.size
    n_realizations = cfg["sampling.n_realizations"]
    sample = functools.partial(langevin_sample, score_fn, c, plan, 1, n_samples=n)
    acc = np.zeros((n, 1))
    with ThreadPoolExecutor(max_workers=1) as helper:
        for _ in range(n_realizations // 2):
            first, second = rng.spawn(2)
            ahead = helper.map(sample, [second])
            acc += sample(first)
            acc += next(ahead)
        if n_realizations % 2:
            acc += sample(rng.spawn(1)[0], helper=helper)
    return (acc / n_realizations).ravel()


# ---------------------------------------------------------------------------
# Commands


def cmd_distort(args, cfg: dict, seed: int, jobs: int) -> int:
    base_cfg = _chain_config_from(cfg)
    manifest = _read_manifest(args.manifest)
    out_dir = Path(args.out_dir)  # made by main, like every output's directory
    log_path = Path(args.log) if args.log else out_dir / "distort_log.jsonl"

    chain_cfg_cache: dict[int, ChainConfig] = {}
    cache_lock = threading.Lock()

    def chain_cfg_at(rate: int) -> ChainConfig:
        # under the lock, so worker threads load each rate's pools once
        with cache_lock:
            if rate not in chain_cfg_cache:
                chain_cfg_cache[rate] = dataclasses.replace(
                    base_cfg, noise_pool=_load_pool(cfg["distort.noise_dir"], rate),
                    rir_pool=_load_pool(cfg["distort.rir_dir"], rate))
            return chain_cfg_cache[rate]

    def process(item):
        index, path = item
        try:
            signal = read_wav(path, downmix=True)
            chain_cfg = chain_cfg_at(signal.sample_rate)
            rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
            chain = sample_chain(chain_cfg, rng)
            pair = apply_chain(signal, chain, chain_cfg)
            stem = f"{index:05d}_{Path(path).stem}"
            clean_path = out_dir / f"{stem}.clean.wav"
            dist_path = out_dir / f"{stem}.distorted.wav"
            write_wav(clean_path, pair.clean, encoding="float32")
            write_wav(dist_path, pair.distorted, encoding="float32")
            return {
                "input": str(path),
                "clean": str(clean_path),
                "distorted": str(dist_path),
                "file_index": index,
                "offset": pair.offset,
                "clipped": pair.clipped,
                "engine_version": ENGINE_VERSION,
                "chain": [spec.to_dict() for spec in chain],
            }
        except Exception as exc:  # logged per file, surfaced via exit code
            return {"input": str(path), "file_index": index, "engine_version": ENGINE_VERSION,
                    "error": str(exc)}

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(process, enumerate(manifest)))

    # Replay also depends on the engine version and on the numpy and scipy
    # builds (FFT and filter code can move the last bits of an output).
    header = {**_header("distort", cfg, seed), "engine_version": ENGINE_VERSION,
              **dict(_library_versions())}
    _write_jsonl(log_path, [header, *results])
    failures = [r for r in results if "error" in r]
    print(f"distort: {len(results) - len(failures)} pair(s) written to {out_dir}, "
          f"{len(failures)} failure(s); log: {log_path}")
    for failure in failures:
        print(f"  failed: {failure['input']}: {failure['error']}", file=sys.stderr)
    return EXIT_IO if failures else EXIT_OK


def _corpus_sampler(manifest_path: str):
    paths = _read_manifest(manifest_path)
    if not paths:
        raise ConfigError(f"training manifest {manifest_path} lists no files")
    pool = np.concatenate([read_wav(p, downmix=True).samples for p in paths])
    if not pool.size:
        raise ConfigError(f"training manifest {manifest_path} holds no samples")

    def draw(rng, batch_size):
        idx = rng.integers(0, pool.size, size=batch_size)
        return pool[idx][:, None], None

    return draw


def _sidecar(checkpoint) -> Path:
    """The checkpoint's resume state: JSON of its sha256 and the data stream's
    PCG64 state, so ``--resume`` takes no other checkpoint's stream."""
    return Path(str(checkpoint) + ".rng.json")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_train(args, cfg: dict, seed: int, jobs: int) -> int:
    iterations = cfg["train.iterations"] if args.iterations is None else args.iterations
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    if cfg["train.batch_size"] < 1:
        raise ConfigError(f"train.batch_size must be >= 1, got {cfg['train.batch_size']}")
    schedule = _schedule_from(cfg)
    rng = np.random.default_rng(seed)

    if args.resume:
        net, opt_state = load_checkpoint(args.resume)
        if opt_state is None:
            raise ConfigError(f"{args.resume} has no optimizer state; cannot resume")
        opt_config = opt_state.config
        try:
            saved = json.loads(_sidecar(args.resume).read_text())
            named, rng.bit_generator.state = saved["checkpoint_sha256"], saved["state"]
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"missing or malformed rng sidecar for resume: {exc!r}") from exc
        if named != _sha256(args.resume):
            raise ConfigError(f"the rng sidecar of {args.resume} belongs to another checkpoint")
    else:
        net = ScoreNet(
            ScoreNetConfig(
                dim_x=1,
                dim_c=0,
                hidden=tuple(cfg["model.hidden"]),
                n_pairs=cfg["model.n_pairs"],
                embed_dim=cfg["model.embed_dim"],
            ),
            rng,
        )
        opt_state = None
        total = cfg["optimizer.total_steps"] or max(iterations, 1)
        opt_config = OptimizerConfig(
            total_steps=total,
            peak_lr=cfg["optimizer.peak_lr"],
            warmup_frac=cfg["optimizer.warmup_frac"],
            weight_decay=cfg["optimizer.weight_decay"],
        )

    data = _prior_from(cfg) if args.data == "gmm" else _corpus_sampler(args.data)

    lines = [_header("train", cfg, seed)]
    if iterations > 0:
        with ThreadPoolExecutor(max_workers=1) as helper:  # see COMMANDS
            trace = train(net, data, schedule, opt_config, iterations,
                          cfg["train.batch_size"], rng, opt_state=opt_state, helper=helper)
        opt_state = net.opt_state
        lines += [{"iteration": i, "loss": float(loss)} for i, loss in enumerate(trace)]
        lines.append({"final_loss": float(trace[-1]), "iterations": iterations})

    out = Path(args.out)
    save_checkpoint(out, net, opt_state)  # a resume of 0 iterations keeps its moments
    with replacing(_sidecar(out), "w") as fh:
        fh.write(json.dumps({"checkpoint_sha256": _sha256(out), "state": rng.bit_generator.state}))
    trace_path = Path(args.trace) if args.trace else out.with_suffix(out.suffix + ".trace.jsonl")
    _write_jsonl(trace_path, lines)
    print(f"train: {iterations} iteration(s); checkpoint: {out}; trace: {trace_path}")
    return EXIT_OK


def cmd_enhance(args, cfg: dict, seed: int, jobs: int) -> int:
    noisy, ref = _read_clips(args)
    plan = make_plan(_schedule_from(cfg), cfg["sampling.n_steps"], cfg["sampling.epsilon"])
    score = _enhancement_score(noisy.samples, cfg, args.checkpoint)
    enhanced = _enhance_samples(noisy.samples, cfg, score, plan, np.random.default_rng(seed))
    out_sig = Signal(samples=enhanced, sample_rate=noisy.sample_rate)
    write_wav(args.output, out_sig, encoding="float32")

    lines = [_header("enhance", cfg, seed)]
    record = {"input": str(args.input), "output": str(args.output),
              "n_steps": cfg["sampling.n_steps"], "epsilon": cfg["sampling.epsilon"],
              "n_realizations": cfg["sampling.n_realizations"]}
    if ref is not None:
        report = evaluate_pair(ref.samples, enhanced, resolutions=cfg["metrics.resolutions"])
        record["metrics"] = report.to_dict()
        record["input_snr"] = snr(ref.samples, noisy.samples)
        print(f"enhance: snr {record['input_snr']:.2f} dB -> {report.snr:.2f} dB")
    else:
        print(f"enhance: wrote {args.output}")
    lines.append(record)
    if args.log:
        _write_jsonl(args.log, lines)
    return EXIT_OK


def cmd_eval(args, cfg: dict, seed: int, jobs: int) -> int:
    if args.pairs:
        pairs = []
        for lineno, line in _read_lines(args.pairs, AudioError, "pairs manifest"):
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(f"{args.pairs}:{lineno}: expected 'ref est', got {line!r}")
            pairs.append(tuple(parts))
    elif args.reference and args.estimate:
        pairs = [(args.reference, args.estimate)]
    else:
        raise ConfigError("eval needs either --pairs or both --reference and --estimate")

    resolutions = cfg["metrics.resolutions"]

    def process(pair):
        ref_path, est_path = pair
        ref = read_wav(ref_path, downmix=True)
        est = read_wav(est_path, downmix=True)
        if est.sample_rate != ref.sample_rate:
            est = resample(est, ref.sample_rate)
        n = min(len(ref), len(est))
        report = evaluate_pair(ref.samples[:n], est.samples[:n], resolutions=resolutions)
        return {"reference": ref_path, "estimate": est_path, **report.to_dict()}

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        rows = list(pool.map(process, pairs))

    columns = ("snr", "si_snr", "lsd", "mrstft")
    print(f"{'reference':30s} {'estimate':30s} " + " ".join(f"{c:>8s}" for c in columns))
    for row in rows:
        print(f"{Path(row['reference']).name:30s} {Path(row['estimate']).name:30s} "
              + " ".join(f"{row[c]:8.3f}" for c in columns))
    if args.out:
        _write_jsonl(args.out, [_header("eval", cfg, seed), *rows])
    return EXIT_OK


def cmd_sweep(args, cfg: dict, seed: int, jobs: int) -> int:
    try:
        n_list, eps_list = _p_ints(args.n_list), _p_floats(args.eps_list)
    except ValueError as exc:
        raise ConfigError(f"bad --n-list or --eps-list: {exc}") from exc
    if not n_list or not eps_list:
        raise ConfigError("sweep needs non-empty --n-list and --eps-list")
    # every cell's plan first, so a bad (N, epsilon) exits 2 before any file is read
    schedule = _schedule_from(cfg)
    grid = [(n, eps, make_plan(schedule, n, eps)) for n in n_list for eps in eps_list]
    noisy, reference = _read_clips(args)
    duration = len(noisy) / noisy.sample_rate
    score = _enhancement_score(noisy.samples, cfg, args.checkpoint)

    rows = []
    for n_steps, epsilon, plan in grid:
        rng = np.random.default_rng(np.random.SeedSequence([seed, n_steps]))
        start = time.perf_counter()
        enhanced = _enhance_samples(noisy.samples, cfg, score, plan, rng)
        elapsed = time.perf_counter() - start
        row = {"n_steps": n_steps, "epsilon": epsilon,
               "rtf": elapsed / duration, "seconds": elapsed}
        if reference is not None:
            report = evaluate_pair(reference.samples, enhanced,
                                   resolutions=cfg["metrics.resolutions"])
            row["snr"] = report.snr
            row["mrstft"] = report.mrstft
        rows.append(row)

    print(f"{'N':>4s} {'eps':>5s} {'rtf':>10s}"
          + (f" {'snr':>8s} {'mrstft':>8s}" if reference else ""))
    for row in rows:
        line = f"{row['n_steps']:4d} {row['epsilon']:5.2f} {row['rtf']:10.5f}"
        if reference is not None:
            line += f" {row['snr']:8.3f} {row['mrstft']:8.3f}"
        print(line)
    if args.out:
        _write_jsonl(args.out, [_header("sweep", cfg, seed), *rows])
    return EXIT_OK


def cmd_sample_prior(args, cfg: dict, seed: int, jobs: int) -> int:
    if not 1 <= args.n <= np.iinfo(np.intp).max:  # numpy sizes are C integers
        raise ConfigError(f"--n must be in 1..{np.iinfo(np.intp).max}, got {args.n}")
    prior = _prior_from(cfg)
    rng = np.random.default_rng(seed)
    if args.method == "direct":
        draws = sample_prior(prior, args.n, rng)
    else:
        plan = make_plan(_schedule_from(cfg), cfg["sampling.n_steps"], cfg["sampling.epsilon"])
        # Not through _enhance_samples: its lone realization samples from
        # rng.spawn(1)[0], and sample-prior's draws come from rng itself.
        with ThreadPoolExecutor(max_workers=1) as helper:
            draws = langevin_sample(score_function(prior), None, plan, dim=prior.dim, rng=rng,
                                    n_samples=args.n, helper=helper)
    out = Path(args.out)
    with replacing(out, "w") as fh:
        np.savetxt(fh, draws, fmt="%.17g")
    log_path = args.log or str(out) + ".log.jsonl"
    _write_jsonl(log_path, [_header("sample-prior", cfg, seed),
                            {"n": args.n, "method": args.method, "out": str(out)}])
    print(f"sample-prior: {args.n} draw(s) ({args.method}) -> {out}")
    return EXIT_OK


# Every command runs as COMMANDS[name](args, cfg, seed, jobs); only distort
# and eval fan out, the others leave jobs unused. Each enhancement (an
# _enhance_samples call, sample-prior's Langevin call) and each train run of
# one or more iterations opens one one-worker ThreadPoolExecutor and no other
# thread, whatever jobs is, and joins it before it returns or raises. That
# helper is not a fan-out: it does work the calling thread would have done,
# with the same bits, handed to it through diffusion.handing (or, for
# _enhance_samples's pairs, its map).
COMMANDS = {
    "distort": cmd_distort,
    "train": cmd_train,
    "enhance": cmd_enhance,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "sample-prior": cmd_sample_prior,
}


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    # Global flags live in a parent parser with SUPPRESS defaults so they are
    # accepted both before and after the subcommand without the subparser's
    # default clobbering a value parsed by the main parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the config seed")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="parallel fan-out over independent files")

    parser = argparse.ArgumentParser(
        prog="scorewave",
        description="Score-diffusion toolkit: distortion synthesis, toy training, "
                    "annealed Langevin enhancement, metrics, and speed-quality sweeps.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distort", parents=[common],
                       help="degrade a manifest of WAVs into pairs")
    p.add_argument("manifest", help="text file: one input WAV path per line")
    p.add_argument("out_dir", help="directory for paired WAVs and the chain log")
    p.add_argument("--log", default=None, help="chain log path (default: out_dir/distort_log.jsonl)")
    p.set_defaults(outputs=("log", "out_dir"))

    p = sub.add_parser("train", parents=[common], help="train the toy score network")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--data", default="gmm",
                   help="'gmm' (config prior) or a manifest of WAVs")
    p.add_argument("--iterations", type=int, default=None,
                   help="override train.iterations")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--trace", default=None, help="loss trace path")
    p.set_defaults(outputs=("out", "trace"))

    p = sub.add_parser("enhance", parents=[common], help="denoise a WAV's samples")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--checkpoint", default=None,
                   help="trained checkpoint (default: analytic posterior oracle)")
    p.add_argument("--reference", default=None, help="clean WAV for metrics")
    p.add_argument("--log", default=None, help="JSON-lines log path")
    p.set_defaults(outputs=("output", "log"))

    p = sub.add_parser("eval", parents=[common], help="objective metrics for WAV pairs")
    p.add_argument("--pairs", default=None, help="manifest: 'reference estimate' per line")
    p.add_argument("--reference", default=None)
    p.add_argument("--estimate", default=None)
    p.add_argument("--out", default=None, help="JSON-lines output path")
    p.set_defaults(outputs=("out",))

    p = sub.add_parser("sweep", parents=[common], help="quality vs real-time factor over (N, epsilon)")
    p.add_argument("--input", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--n-list", default="1,2,4,8,16,32,64")
    p.add_argument("--eps-list", default="1.5,2.3,3.0")
    p.add_argument("--out", default=None, help="JSON-lines output path")
    p.set_defaults(outputs=("out",))

    p = sub.add_parser("sample-prior", parents=[common], help="draw from the configured mixture prior")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--method", choices=("direct", "langevin"), default="direct")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.set_defaults(outputs=("out", "log"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    created: list[Path] = []  # output directories this run made
    code = None
    try:
        # The shared flags use SUPPRESS defaults (so a value parsed before
        # the subcommand survives the subparser pass); absent means default.
        cfg = load_config(getattr(args, "config", None))
        seed = getattr(args, "seed", None)
        if seed is None:
            seed = cfg["seed"]
        if seed < 0:  # numpy seeds only from non-negative integers
            raise ConfigError(f"seed must be >= 0, got {seed}")
        jobs = getattr(args, "jobs", 1)
        if jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {jobs}")
        _make_parents(args, created)
        code = COMMANDS[args.command](args, cfg, seed, jobs)
    except ConfigError as exc:
        print(f"scorewave: config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except (AudioError, OSError) as exc:
        print(f"scorewave: i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO
    except NumericError as exc:
        print(f"scorewave: numeric error: {exc}", file=sys.stderr)
        code = EXIT_NUMERIC
    finally:
        if code != EXIT_OK:  # a failed run leaves no empty directory of its own
            for directory in reversed(created):
                with contextlib.suppress(OSError):  # not empty: keep it
                    directory.rmdir()
    return code


if __name__ == "__main__":
    sys.exit(main())
