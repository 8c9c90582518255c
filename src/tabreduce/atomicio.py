"""Whole-file writes that never leave a half-written file behind.

Every output file (datasets, models, checkpoints, reports, manifests) is
written, or copied, to a temporary file in the same directory and then
moved over the target with ``os.replace``, so a reader sees either the
previous file or the complete new one.  This guards against an exception or a killed process
mid-write, not against power loss (nothing is fsynced).
"""

from __future__ import annotations

import contextlib
import os
import shutil
from typing import IO, Iterator


@contextlib.contextmanager
def _replacing(path) -> Iterator[str]:
    """Yield a temporary path next to ``path`` that is moved over it on a
    clean exit and removed on an exception."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def atomic_write(path) -> Iterator[IO[str]]:
    """Yield a UTF-8 text handle whose content replaces ``path`` on a clean
    exit; on an exception the temporary file is removed and ``path`` is left
    as it was."""
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yield fh


def atomic_copy(source, path) -> None:
    """Replace ``path`` with the bytes of ``source``, all or nothing, as
    ``atomic_write`` does."""
    with _replacing(path) as tmp:
        shutil.copyfile(source, tmp)
