"""The one writer of polminer's output files: each is replaced whole or left as it was."""

from __future__ import annotations

import contextlib
import os
import stat
from collections.abc import Iterator
from pathlib import Path
from typing import TextIO


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8, LF text handle whose content replaces ``path`` on success.

    The text streams into a temporary file beside ``path`` (parents are
    created) that ``os.replace`` moves over ``path``, or that a failure
    deletes. The mode is the one ``open(path, "w")`` leaves. Nothing is fsynced.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies, as in open()
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            with contextlib.suppress(FileNotFoundError):  # an existing file keeps its mode
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
