"""Whole-or-nothing file writes: a temporary file beside the target, renamed
over it once every byte is written. Every file qfbias writes goes this way."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def replacing(path):
    """Yield a binary file whose bytes replace path when the block ends.

    The bytes go to a temporary file beside the file path names, after its
    links are followed, which then replaces that file in one rename: a block
    that raises leaves any previous file there whole and removes the
    temporary file, and a link stays a link. A path that names a device or a
    pipe is written in place, as no rename can replace what it reaches. So
    /dev/stdout is written in place only while stdout is a pipe or a
    terminal: bound to a regular file, it is a link to that file, which the
    rename replaces.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "wb") as fh:
            yield fh
        return
    target = Path(os.path.realpath(path))
    # "x" refuses to reuse a name; an unlucky clash fails before touching target
    tmp = target.with_name(f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
