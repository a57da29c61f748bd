"""The documented import surface: every ``from scorewave… import …`` line in
the README's python blocks runs, and the package re-exports exactly the
names those lines take from ``scorewave`` plus the error classes. And the
import graph: importing the package, and every command that never calls
scipy, loads no ``scipy`` module (``import scipy.signal`` alone takes
longer than the rest of such a command's start-up). And no module imports
a name at top level that it never uses or re-exports."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scorewave
from scorewave import errors
from scorewave.scorenet import ScoreNet, ScoreNetConfig, save_checkpoint
from scorewave.signal import Signal, write_wav

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports() -> list[str]:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if re.match(r"from scorewave(\.\w+)* import ", line.strip())]


def test_readme_import_lines_run():
    lines = readme_imports()
    assert any(line.startswith("from scorewave import ") for line in lines)
    for line in lines:
        exec(line, {})


def test_package_all_is_readme_names_plus_errors():
    documented = {name.strip() for line in readme_imports()
                  if line.startswith("from scorewave import ")
                  for name in line.partition(" import ")[2].split(",")}
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.ScorewaveError)}
    assert len(error_classes) == 7
    assert sorted(scorewave.__all__) == sorted(documented | error_classes)
    assert all(hasattr(scorewave, name) for name in scorewave.__all__)


# -- import graph -----------------------------------------------------------
# Each case runs in a fresh interpreter (this one has scipy loaded already):
# it executes its statements, then runs its command lines through
# ``scorewave.cli.main`` in order, and reports the exit codes and the scipy
# modules in sys.modules.

SRC = Path(scorewave.__file__).resolve().parents[1]
CHILD = """
import json, sys
{statements}
from scorewave.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def run_child(argvs, statements="import scorewave", cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD.format(statements=statements),
                           json.dumps(argvs)], env=env, cwd=cwd, capture_output=True,
                          text=True, check=True)
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    return codes, scipy_modules


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """16 kHz clean/noisy clips, an 8 kHz estimate, a dim_c=1 checkpoint
    and a small config, written here (where scipy is loaded anyway)."""
    d = tmp_path_factory.mktemp("imports")
    rng = np.random.default_rng(7)
    clean = 0.3 * np.sin(2 * np.pi * 220 * np.arange(1600) / 16000)
    write_wav(d / "clean.wav", Signal(clean, 16000), encoding="float32")
    write_wav(d / "noisy.wav", Signal(clean + 0.3 * rng.standard_normal(1600), 16000),
              encoding="float32")
    write_wav(d / "est8k.wav", Signal(clean[::2], 8000), encoding="float32")
    net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=1, hidden=(8,), n_pairs=4, embed_dim=8),
                   np.random.default_rng(0))
    save_checkpoint(d / "c1.ckpt", net)
    (d / "small.cfg").write_text("sampling.n_steps = 4\nmodel.hidden = 8\n"
                                 "model.n_pairs = 4\nmodel.embed_dim = 8\ntrain.batch_size = 8\n")
    (d / "manifest.txt").write_text(f"{d / 'noisy.wav'}\n")
    return d


def scipy_free_cases(d):
    cfg = ["--config", str(d / "small.cfg")]
    enhance = cfg + ["enhance", "--input", str(d / "noisy.wav"), "--reference", str(d / "clean.wav")]
    return {
        "enhance_oracle": [enhance + ["--output", str(d / "o.wav")]],
        "enhance_checkpoint": [enhance + ["--checkpoint", str(d / "c1.ckpt"),
                                          "--output", str(d / "c.wav")]],
        "train_and_resume": [cfg + ["train", "--iterations", "2", "--out", str(d / "t.ckpt")],
                             cfg + ["train", "--iterations", "2", "--resume", str(d / "t.ckpt"),
                                    "--out", str(d / "r.ckpt")]],
        "sample_prior": [cfg + ["sample-prior", "--n", "5", "--out", str(d / "p.txt")],
                         cfg + ["sample-prior", "--n", "5", "--method", "langevin",
                                "--out", str(d / "l.txt")]],
        "sweep_oracle": [cfg + ["sweep", "--input", str(d / "noisy.wav"), "--reference",
                                str(d / "clean.wav"), "--n-list", "1,4", "--eps-list", "2.3"]],
        "eval_same_rate": [["eval", "--reference", str(d / "clean.wav"),
                            "--estimate", str(d / "noisy.wav")]],
        "eval_mixed_rate": [["eval", "--reference", str(d / "clean.wav"),
                             "--estimate", str(d / "est8k.wav")]],
    }


@pytest.mark.parametrize("statements", ["import scorewave", "import scorewave.cli"])
def test_importing_the_package_loads_no_scipy(statements):
    assert run_child([], statements) == ([], [])


@pytest.mark.parametrize("case", ["enhance_oracle", "enhance_checkpoint", "train_and_resume",
                                  "sample_prior", "sweep_oracle", "eval_same_rate",
                                  "eval_mixed_rate"])
def test_commands_that_never_call_scipy_load_none_of_it(inputs, case):
    argvs = scipy_free_cases(inputs)[case]
    codes, scipy_modules = run_child(argvs, cwd=inputs)
    assert codes == [0] * len(argvs)
    assert scipy_modules == []


def test_commands_that_call_scipy_still_run(inputs):
    """distort imports scipy.signal on first use: seed 5's chain runs a
    low-pass filter (and down_sample, which resamples without scipy). A
    mixed-rate eval after it in the same process still works."""
    d = inputs
    codes, scipy_modules = run_child([
        ["--jobs", "2", "--seed", "5", "distort", str(d / "manifest.txt"), str(d / "dist")],
        ["--jobs", "2", "eval", "--reference", str(d / "clean.wav"), "--estimate", str(d / "est8k.wav")],
    ])
    assert codes == [0, 0]
    assert "scipy.signal" in scipy_modules


# -- unused imports ---------------------------------------------------------


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads and
    does not list in ``__all__`` (``from __future__`` imports excepted)."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names]
    exported = [name for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read and name not in exported]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted((SRC / "scorewave").rglob("*.py"))
    assert len(modules) >= 14
    unused = {str(path.relative_to(SRC)): names for path in modules
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


# -- helper threads -----------------------------------------------------------


def calls_in(path: Path) -> list[tuple[str, str | None, str | None]]:
    """(module, top-level def or class it sits in, callee's last name) for
    every call in a source file of ``src/``."""
    tree = ast.parse(path.read_text())
    module = str(path.relative_to(SRC))
    return [(module, getattr(top, "name", None),
             node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None))
            for top in tree.body for node in ast.walk(top) if isinstance(node, ast.Call)]


def test_one_hand_off_and_one_pool_owner():
    """Work reaches a pool through ``diffusion.handing`` (and a pool's own
    ``map``) alone, and only the CLI builds a pool, so no module grows a
    hand-off with its own join."""
    calls = [call for path in sorted((SRC / "scorewave").rglob("*.py")) for call in calls_in(path)]
    assert {(module, top) for module, top, name in calls if name == "submit"} == {
        ("scorewave/diffusion.py", "handing")}
    assert {module for module, _, name in calls if name == "ThreadPoolExecutor"} == {
        "scorewave/cli.py"}
