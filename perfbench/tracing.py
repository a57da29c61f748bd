"""Outside-in tracing for the benchmark's traced run.

The program is not modified. ``Tracer.install`` replaces each layer's
public functions *where they are looked up* (``scorewave.cli`` imports
``read_wav``, ``apply_chain``, ``langevin_sample`` ... by name, the
distortion primitives and the metrics import ``stft``/``istft`` by name,
and the registry appliers live in ``PRIMITIVES``) with wrappers that record
``perf_counter`` spans; ``uninstall`` puts the originals back. A span is
``(id, name, start, end, parent, count)``: ``count`` is the work the call
did (rows, bytes, frames) where one exists. Spans stay in memory until
``take`` hands them to ``round_layers``, which aggregates one round.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Distortion primitives that get their own metric (the rest are only
# summed into their family).
NAMED_PRIMITIVES = ("rir_convolution", "algorithmic_reverb", "noise_gate", "compressor",
                    "griffin_lim")
FAMILIES = ("band_limiting", "codec", "distortion", "loudness", "equalization",
            "recorded_noise", "reverb_delay", "spectral", "synthetic_noise", "transmission")


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim < 2 else int(x.shape[0])


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """Wrap fn in a span; count(args, kwargs, result) gives its work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            self.spans.append((sid, name, t0, t1, parent,
                               count(args, kwargs, out) if count else 0))
            return out

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _pool_class(self):
        """A ThreadPoolExecutor whose map runs each item under the span
        that was open in the submitting thread, so pool work nests under
        the command that fanned it out."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0

                def item(*args):
                    tracer._local.stack = [parent]
                    return fn(*args)

                return super().map(item, *iterables, **kwargs)

        return TracedPool

    def _sampler(self, langevin_sample):
        """langevin_sample that also wraps the score callable it receives:
        a ScoreNet forward is the network's score, anything else in the
        CLI is the analytic posterior oracle."""
        from scorewave.scorenet import ScoreNet

        def score_count(args, kwargs, out):
            return _rows(args[0])

        def sample(score_fn, *args, **kwargs):
            owner = getattr(score_fn, "__self__", None)
            name = "diffusion.score" if isinstance(owner, ScoreNet) else "oracle.score"
            return langevin_sample(self.wrap(name, score_fn, score_count), *args, **kwargs)

        return self.wrap("diffusion.langevin_sample", sample)

    def install(self) -> None:
        from scorewave import cli, metrics, scorenet
        from scorewave.distort import primitives

        w = self.wrap

        def frames_out(args, kwargs, out):
            return int(out.data.shape[0])

        def frames_in(args, kwargs, out):
            return int(args[0].data.shape[0])

        def size_arg(args, kwargs, out):
            return os.path.getsize(args[0])

        def rows_arg1(args, kwargs, out):
            return _rows(args[1])

        self._patch(cli, "read_wav", w("signal.read_wav", cli.read_wav, size_arg))
        self._patch(cli, "write_wav", w("signal.write_wav", cli.write_wav, size_arg))
        self._patch(cli, "resample", w("signal.resample", cli.resample))
        self._patch(cli, "evaluate_pair", w("metrics.evaluate_pair", cli.evaluate_pair))
        self._patch(cli, "sample_chain", w("distort.sample_chain", cli.sample_chain))
        self._patch(cli, "apply_chain", w("distort.apply_chain", cli.apply_chain))
        self._patch(cli, "langevin_sample", self._sampler(cli.langevin_sample))
        self._patch(cli, "load_checkpoint", w("scorenet.load_checkpoint", cli.load_checkpoint))
        self._patch(cli, "save_checkpoint",
                    w("scorenet.save_checkpoint", cli.save_checkpoint, size_arg))
        self._patch(cli, "train", w("scorenet.train", cli.train))
        self._patch(cli, "ThreadPoolExecutor", self._pool_class())
        self._patch(metrics, "mrstft", w("metrics.mrstft", metrics.mrstft))
        self._patch(metrics, "lsd", w("metrics.lsd", metrics.lsd))
        self._patch(metrics, "stft", w("signal.stft", metrics.stft, frames_out))
        self._patch(primitives, "stft", w("signal.stft", primitives.stft, frames_out))
        self._patch(primitives, "istft", w("signal.istft", primitives.istft, frames_in))
        self._patch(scorenet, "dsm_loss_and_grads",
                    w("scorenet.dsm_loss_and_grads", scorenet.dsm_loss_and_grads))
        self._patch(scorenet, "adam_step", w("scorenet.adam_step", scorenet.adam_step))
        self._patch(scorenet, "sample_prior", w("oracle.sample", scorenet.sample_prior))
        self._patch(scorenet.ScoreNet, "forward",
                    w("scorenet.forward", scorenet.ScoreNet.forward, rows_arg1))
        self._patch(scorenet.ScoreNet, "backward",
                    w("scorenet.backward", scorenet.ScoreNet.backward))
        self._patch(scorenet.SigmaEmbedding, "forward",
                    w("scorenet.sigma_embed", scorenet.SigmaEmbedding.forward,
                      lambda args, kwargs, out: int(np.size(args[1]))))
        self._patch(scorenet.FilmMlp, "forward",
                    w("scorenet.film_mlp", scorenet.FilmMlp.forward))
        # The registry dict is shared by cli, chain and primitives, so
        # replacing its entries reaches every applier call site.
        registry = primitives.PRIMITIVES
        for kind, prim in list(registry.items()):
            traced = dataclasses.replace(prim, apply=w(f"distort.prim.{kind}", prim.apply))
            self._undo.append((registry, kind, prim))
            registry[kind] = traced

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for sid, _, t0, t1, parent, _ in spans:
        children.setdefault(parent, []).append((t0, t1))
    return {sid: (t1 - t0) - _covered(children.get(sid, ()))
            for sid, _, t0, t1, _, _ in spans}


def round_layers(spans, family_of: dict[str, str], wall: float, cpu: float,
                 jobs: int) -> tuple[dict, dict]:
    """Per-layer figures for one traced round, plus per-call durations for
    the spans that get percentiles."""
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    count: dict[str, int] = {}
    calls: dict[str, int] = {}
    per_call: dict[str, list] = {"distort.apply_chain": [], "metrics.evaluate_pair": [],
                                 "scorenet.adam_step": []}
    out = {"cli.self_s": 0.0, "diffusion.sampler_self_s": 0.0, "distort.align_s": 0.0}
    for sid, name, t0, t1, parent, n in spans:
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
        count[name] = count.get(name, 0) + n
        calls[name] = calls.get(name, 0) + 1
        if name in per_call:
            per_call[name].append(t1 - t0)
        if name == "cli.main":
            out["cli.self_s"] += selfs[sid]
        elif name == "diffusion.langevin_sample":
            out["diffusion.sampler_self_s"] += selfs[sid]
        elif name == "distort.apply_chain":
            out["distort.align_s"] += selfs[sid]

    def b(name):
        return busy.get(name, 0.0)

    out.update({
        "scorenet.sigma_embed_s": b("scorenet.sigma_embed"),
        "scorenet.sigma_embed_rows": count.get("scorenet.sigma_embed", 0),
        "scorenet.film_mlp_s": b("scorenet.film_mlp"),
        "scorenet.forward_s": b("scorenet.forward"),
        "scorenet.forward_rows": count.get("scorenet.forward", 0),
        "scorenet.backward_s": b("scorenet.backward"),
        "scorenet.dsm_loss_and_grads_s": b("scorenet.dsm_loss_and_grads"),
        "scorenet.adam_step_s": b("scorenet.adam_step"),
        "scorenet.save_checkpoint_s": b("scorenet.save_checkpoint"),
        "scorenet.save_checkpoint_bytes": count.get("scorenet.save_checkpoint", 0),
        "scorenet.load_checkpoint_s": b("scorenet.load_checkpoint"),
        "diffusion.langevin_sample_s": b("diffusion.langevin_sample"),
        "diffusion.score_calls": calls.get("diffusion.score", 0) + calls.get("oracle.score", 0),
        "diffusion.score_rows": count.get("diffusion.score", 0) + count.get("oracle.score", 0),
        "oracle.score_s": b("oracle.score"),
        "oracle.sample_s": b("oracle.sample"),
        "distort.sample_chain_s": b("distort.sample_chain"),
        "distort.apply_chain_s": b("distort.apply_chain"),
        "distort.steps": sum(calls.get(f"distort.prim.{k}", 0) for k in family_of),
        "signal.read_wav_s": b("signal.read_wav"),
        "signal.read_wav_bytes": count.get("signal.read_wav", 0),
        "signal.write_wav_s": b("signal.write_wav"),
        "signal.write_wav_bytes": count.get("signal.write_wav", 0),
        "signal.resample_s": b("signal.resample"),
        "signal.stft_s": b("signal.stft"),
        "signal.stft_frames": count.get("signal.stft", 0),
        "signal.istft_s": b("signal.istft"),
        "signal.istft_frames": count.get("signal.istft", 0),
        "metrics.evaluate_pair_s": b("metrics.evaluate_pair"),
        "metrics.mrstft_s": b("metrics.mrstft"),
        "metrics.lsd_s": b("metrics.lsd"),
        "cli.command_s": b("cli.main"),
        "cli.jobs_efficiency": cpu / (jobs * wall),
    })
    for family in FAMILIES:
        out[f"distort.family.{family}_s"] = sum(
            b(f"distort.prim.{k}") for k, f in family_of.items() if f == family)
    for kind in NAMED_PRIMITIVES:
        out[f"distort.prim.{kind}_s"] = b(f"distort.prim.{kind}")
    return out, per_call
