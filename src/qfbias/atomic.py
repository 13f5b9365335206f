"""Whole-or-nothing file writes: a temporary file beside the target, renamed
over it once every byte is written. Every file qfbias writes goes this way."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def replacing(path):
    """Yield a binary file whose bytes replace path when the block ends.

    The bytes go to a temporary file in the same directory, which then
    replaces path in one rename: a block that raises leaves any previous
    file at path whole and removes the temporary file. A path that is a
    link, a device or a pipe (such as /dev/stdout) is written in place, as
    a rename would replace the link or device itself.
    """
    path = Path(path)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with open(path, "wb") as fh:
            yield fh
        return
    # "x" refuses to reuse a name; an unlucky clash fails before touching path
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
