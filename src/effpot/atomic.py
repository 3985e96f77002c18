"""Whole-or-nothing file output, shared by the CLI, the figures and the
trajectory export; it imports only ``os``, so none of them pulls in another
layer to write a file."""

import os


def write_atomic(path, text: str) -> None:
    """Write text to path under a temporary name beside it and rename it into
    place, so a failure never leaves a partial file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
