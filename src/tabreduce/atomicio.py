"""Whole-file writes that never leave a half-written file behind.

Every output file (datasets, models, reports, manifests) is written to a
temporary file in the same directory and then moved over the target with
``os.replace``, so a reader sees either the previous file or the complete
new one.  This guards against an exception or a killed process mid-write,
not against power loss (nothing is fsynced).
"""

from __future__ import annotations

import contextlib
import os
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_write(path) -> Iterator[IO[str]]:
    """Yield a UTF-8 text handle whose content replaces ``path`` on a clean
    exit; on an exception the temporary file is removed and ``path`` is left
    as it was."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
