"""Output helpers shared by the CLI, the figures and the trajectory export:
whole-or-nothing file writes and the uniform grids outputs are sampled on.
It imports only ``os``, so none of them pulls in another layer (or numpy)."""

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


def linspace(start: float, stop: float, n: int) -> list:
    """n >= 1 evenly spaced floats from start to stop, bitwise equal to
    ``np.linspace(start, stop, n)``, its branch for a step that underflows to 0 included."""
    delta = stop - start
    if n == 1:
        return [0.0 * delta + start]
    step = delta / (n - 1)
    grid = [(i * step if step else i / (n - 1) * delta) + start for i in range(n)]
    grid[-1] = stop
    return grid
