"""Writing a file so that no reader ever finds it half-written."""

from __future__ import annotations

import os


def write_atomic(path, write, binary=False):
    """Call write(fh) on a temporary file next to path, then move it onto path.

    os.replace is atomic, so path holds either its old bytes or all the new
    ones. A write that raises leaves path as it was and the temporary file
    removed.
    """
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        fh = open(tmp, "wb" if binary else "w")
    except FileNotFoundError as e:  # a missing directory: name path, not its twin
        raise FileNotFoundError(e.errno, e.strerror, os.fspath(path)) from None
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_text(path, text):
    """Write text to path atomically."""
    write_atomic(path, lambda fh: fh.write(text))
