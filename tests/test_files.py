"""Atomic outputs: a write that fails partway leaves the old file as it was.

Each writer runs in a child interpreter whose file-size limit
(RLIMIT_FSIZE, with SIGXFSZ ignored) stops the write after LIMIT bytes
with EFBIG, the way a full disk would. The target already holds OLD, which
is longer than the limit, so a writer that truncated it in place would
leave it changed; an atomic writer leaves it byte for byte, and removes
its temporary file.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import scorewave
from scorewave import cli
from scorewave.files import replacing

SRC = Path(scorewave.__file__).resolve().parents[1]
LIMIT = 100
OLD = b"old contents " * 40

CHILD = """
import resource, signal, sys
import numpy as np
from scorewave import cli

def limit():
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, resource.RLIM_INFINITY))

target = sys.argv[1]
{body}
"""

# writer -> (file the child writes, code that writes it). Library writers
# raise OSError; commands exit 3 (I/O error).
WRITERS = {
    "save_checkpoint": ("net.ckpt", """
from scorewave.scorenet import ScoreNet, ScoreNetConfig, save_checkpoint
net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=0, hidden=(8,), n_pairs=4, embed_dim=8),
               np.random.default_rng(0))
limit()
try:
    save_checkpoint(target, net)
except OSError:
    sys.exit(3)
"""),
    "rng_sidecar": ("net.ckpt.rng.json", """
# the checkpoint is written whole; the limit starts with the sidecar
save = cli.save_checkpoint
def save_then_limit(*args):
    save(*args)
    limit()
cli.save_checkpoint = save_then_limit
sys.exit(cli.main(["--config", sys.argv[2], "train", "--iterations", "1",
                   "--out", target[: -len(".rng.json")]]))
"""),
    "write_wav": ("clip.wav", """
from scorewave.signal import Signal, write_wav
limit()
try:
    write_wav(target, Signal(np.linspace(-0.5, 0.5, 400), 16000), encoding="float32")
except OSError:
    sys.exit(3)
"""),
    "write_jsonl": ("log.jsonl", """
limit()
try:
    cli._write_jsonl(target, [{"line": i} for i in range(100)])
except OSError:
    sys.exit(3)
"""),
    "sample_prior": ("draws.txt", """
limit()
sys.exit(cli.main(["sample-prior", "--n", "100", "--out", target]))
"""),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_old_file(tmp_path, writer):
    name, body = WRITERS[writer]
    target = tmp_path / name
    target.write_bytes(OLD)
    config = tmp_path / "small.cfg"
    config.write_text("model.hidden = 8\nmodel.n_pairs = 4\nmodel.embed_dim = 8\n"
                      "train.batch_size = 8\n")
    before = {p.name for p in tmp_path.iterdir()}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(limit=LIMIT, body=body), str(target), str(config)],
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert target.read_bytes() == OLD
    left = {p.name for p in tmp_path.iterdir()} - before
    assert not [n for n in left if n.endswith(".tmp")], left


def test_replacing_swaps_in_the_new_file_only_on_success(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    with pytest.raises(RuntimeError):
        with replacing(target, "w") as fh:
            fh.write("half")
            raise RuntimeError("interrupted")
    assert target.read_text() == "old"
    with replacing(target, "w") as fh:
        fh.write("new")
    assert target.read_text() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_error_names_the_target_not_the_temporary_file(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as info:
        with replacing(target, "w"):
            pass
    assert info.value.filename == str(target)


def test_fifo_target_is_written_through_not_replaced(tmp_path):
    # /dev/null, /dev/stdout and named pipes are written through in place;
    # renaming over them would leave a regular file where the node was.
    fifo = tmp_path / "log.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a writer's open needs a reader
    try:
        cli._write_jsonl(fifo, [{"line": 1}])
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.read(reader, 4096) == b'{"line": 1}\n'
    finally:
        os.close(reader)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.fifo"]


def test_symlink_target_is_written_through(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    with replacing(link, "w") as fh:
        fh.write("new")
    assert link.is_symlink() and real.read_text() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]
