"""Output helpers shared by the CLI, the figures and the trajectory export:
the one CSV format, whole-or-nothing file writes and the uniform grids
outputs are sampled on. It imports only ``os``, so none of them pulls in
another layer (or numpy)."""

import os


def csv_text(meta, header=(), rows=()) -> str:
    """The text of one CSV output: a ``# key=value`` line per metadata entry
    (a float at 12 significant digits, any other value through ``str``), then
    the header and each row of numbers at 12 significant digits, every line
    ending in a newline. Without a header only the metadata lines are made."""
    lines = [f"# {key}={value:.12g}" if isinstance(value, float) else f"# {key}={value}"
             for key, value in meta.items()]
    if header:
        lines.append(",".join(header))
        row = ",".join(["{:.12g}"] * len(header)).format
        lines.extend(row(*values) for values in rows)
    lines.append("")
    return "\n".join(lines)


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
