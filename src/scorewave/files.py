"""Atomic file output: every regular file a command writes appears whole or
not at all.

:func:`replacing` opens a temporary file beside the target (same directory,
so the final rename stays on one file system) and renames it onto the
target with :func:`os.replace` only once writing has finished. A write that
fails removes the temporary file and leaves whatever was at the target
untouched; a killed process can leave at most a hidden ``.<name>.*.tmp``
file, which no command reads. Nothing is synced to disk, so the guarantee
covers a failed or killed command, not an operating-system crash.

Only a new path or an existing regular file is replaced. A symlink
(``/dev/stdout``) or any other existing non-regular file (``/dev/null``, a
FIFO) is opened and written through in place, as a plain ``open`` would:
renaming over it would swap a device node or link for a regular file.
"""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path


@contextlib.contextmanager
def replacing(path, mode: str = "wb"):
    """``with replacing(path, "w") as fh:`` writes ``path`` atomically.

    The temporary name carries the process and thread ids, so concurrent
    writers of the same target never share a temporary file.
    """
    path = Path(path)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with open(path, mode) as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        fh = open(tmp, mode)
    except OSError as exc:  # say which output could not be written
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
