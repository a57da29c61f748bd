"""The benchmark's hooks into the program: every ``from scorewave… import …``
in ``perfbench/*.py`` runs (collected by AST, as ``test_surface.py`` does for
the README), and the tracer patches the names it times, records their spans
on a traced command, and restores every original when it uninstalls. So a
rename or a fold in the program cannot silently break the traced run."""

from __future__ import annotations

import ast
import concurrent.futures
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from scorewave import cli, diffusion, metrics, oracle, scorenet, signal
from scorewave.signal import Signal, write_wav
from scorewave.distort import PRIMITIVES, chain, primitives

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_imports() -> list[str]:
    lines = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scorewave":
                lines.append(f"from {node.module} import "
                             + ", ".join(alias.name for alias in node.names))
    return lines


def test_perfbench_import_lines_run():
    lines = perfbench_imports()
    assert len(lines) >= 5
    for line in lines:
        exec(line, {})


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# What each name the tracer patches must be when no tracer is installed.
ORIGINALS = [
    (cli, "read_wav", signal.read_wav), (cli, "write_wav", signal.write_wav),
    (cli, "resample", signal.resample), (cli, "evaluate_pair", metrics.evaluate_pair),
    (cli, "sample_chain", chain.sample_chain), (cli, "apply_chain", chain.apply_chain),
    (cli, "langevin_sample", diffusion.langevin_sample),
    (cli, "load_checkpoint", scorenet.load_checkpoint),
    (cli, "save_checkpoint", scorenet.save_checkpoint), (cli, "train", scorenet.train),
    (cli, "ThreadPoolExecutor", concurrent.futures.ThreadPoolExecutor),
    (metrics, "stft", signal.stft), (primitives, "stft", signal.stft),
    (primitives, "istft", signal.istft), (scorenet, "sample_prior", oracle.sample),
]


def test_install_patches_and_uninstall_restores_every_original(tracing):
    for owner, name, original in ORIGINALS:
        assert getattr(owner, name) is original, name
    before = {kind: prim for kind, prim in PRIMITIVES.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._undo)
        for owner, name, _ in ORIGINALS:
            assert any(o is owner and a == name for o, a, _ in patched), name
        for owner, name, original in patched:
            now = owner[name] if isinstance(owner, dict) else getattr(owner, name)
            assert now is not original, name
    finally:
        tracer.uninstall()
    for owner, name, original in patched:
        assert (owner[name] if isinstance(owner, dict) else getattr(owner, name)) is original
    for owner, name, original in ORIGINALS:
        assert getattr(owner, name) is original, name
    assert PRIMITIVES == before and all(PRIMITIVES[k] is before[k] for k in before)


def test_traced_train_records_every_training_span(tracing, tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text("model.hidden = 8\nmodel.n_pairs = 4\nmodel.embed_dim = 8\n"
                      "train.batch_size = 8\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["--config", str(config), "train", "--iterations", "2",
                         "--out", str(tmp_path / "ck.bin")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    names = {span[1] for span in tracer.take()}
    assert {"scorenet.train", "scorenet.dsm_loss_and_grads", "scorenet.adam_step",
            "scorenet.forward", "scorenet.backward", "scorenet.sigma_embed",
            "scorenet.film_mlp", "scorenet.save_checkpoint", "oracle.sample"} <= names


def test_traced_default_size_train_nests_its_steps_under_train(tracing, tmp_path):
    """Default-size net: Adam has 7 slices and backward hands its gradient
    work to the traced pool. One backward and one Adam span per iteration,
    each under the run's ``scorenet.train`` span."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["train", "--iterations", "2", "--out", str(tmp_path / "ck.bin")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert -(-scorenet.ScoreNetConfig(dim_x=1).n_parameters() // scorenet._ADAM_BLOCK) == 7
    spans = tracer.take()
    parents = {sid: parent for sid, _, _, _, parent, _ in spans}
    (run,) = [sid for sid, name, *_ in spans if name == "scorenet.train"]

    def ancestors(sid):
        while sid:
            sid = parents[sid]
            yield sid

    for name in ("scorenet.backward", "scorenet.adam_step"):
        steps = [sid for sid, span, *_ in spans if span == name]
        assert len(steps) == 2, name
        assert all(run in ancestors(sid) for sid in steps), name


@pytest.mark.parametrize("n_realizations", [1, 2, 3])
def test_traced_enhance_nests_every_realization_under_the_command(tracing, tmp_path,
                                                                  n_realizations):
    """Pairs on the calling thread and the helper, a last odd one alone. At
    4,096 rows a lone realization's noise spans two blocks, so the helper
    reaches it through the tracer's sampler wrapper. Each sampler span has
    the command's span as an ancestor, and every score call is counted, N
    per realization."""
    n_steps, n_rows = 8, 4096
    config = tmp_path / "r.cfg"
    config.write_text(f"sampling.n_realizations = {n_realizations}\n"
                      f"sampling.n_steps = {n_steps}\n")
    noisy = np.random.default_rng(3).standard_normal(n_rows)
    write_wav(tmp_path / "in.wav", Signal(samples=noisy, sample_rate=8000), encoding="float32")
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    tracer.install()
    try:
        code = traced_main(["--config", str(config), "enhance", "--input",
                            str(tmp_path / "in.wav"), "--output", str(tmp_path / "out.wav")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    spans = tracer.take()
    parents = {sid: parent for sid, _, _, _, parent, _ in spans}
    (command,) = [sid for sid, name, *_ in spans if name == "cli.main"]

    def ancestors(sid):
        while sid:
            sid = parents[sid]
            yield sid

    samplers = [sid for sid, name, *_ in spans if name == "diffusion.langevin_sample"]
    assert len(samplers) == n_realizations
    assert all(command in ancestors(sid) for sid in samplers)
    scores = [(parent, rows) for _, name, _, _, parent, rows in spans if name == "oracle.score"]
    assert len(scores) == n_realizations * n_steps and {rows for _, rows in scores} == {n_rows}
    assert {parent for parent, _ in scores} == set(samplers)
