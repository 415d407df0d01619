"""The line grammar of the text inputs: the files people write (.sys and
.grid), the knowledge base CSV and its .meta sidecar (a `seed` and a
`provenance` line), and predict rows; and the one reading of a seed,
shared by --seed, the .grid and the sidecar. A trained model is a numpy
archive, read by `elm.load_model`."""

import numpy as np


def lines(data, path, error=ValueError):
    """The stripped UTF-8 lines of `data` (bytes), split as a text-mode
    open() splits them; a byte that is not UTF-8 raises `error`, naming the
    file and the line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        n = len((data[:exc.start] + b".").splitlines())
        raise error(f"{path} line {n}: {exc}") from None
    # universal newlines: CRLF, CR and LF each end a line
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [line.strip() for line in text.split("\n")]


def directives(data, path, sep=None, once=None, error=ValueError):
    """(line number, key, value) of each line that is not blank or a `#`
    comment, split at the first `sep` (whitespace when None) and stripped.
    A line without `sep`, or a second line of a key in `once` (of any key
    when None), raises `error`, naming the file and the line."""
    seen = set()
    for n, line in enumerate(lines(data, path, error), 1):
        if not line or line.startswith("#"):
            continue
        if sep is not None and sep not in line:
            raise error(f"{path} line {n}: '{line}' has no '{sep}'")
        key, value = (s.strip() for s in (line.split(sep, 1) + [""])[:2])
        if once is None or key in once:
            if key in seen:
                raise error(f"{path} line {n}: a second '{key}' line")
            seen.add(key)
        yield n, key, value


def seed(value):
    """`value` read as a seed, a non-negative integer; anything else raises
    ValueError."""
    try:
        n = int(value)
    except ValueError:
        raise ValueError(f"the seed {value!r} is not an integer") from None
    if n < 0:
        raise ValueError(f"the seed {n} is negative")
    return n


def rows(lines, path, error=ValueError, start=1):
    """The non-blank comma-separated `lines`, the first being line `start`
    of `path`, as a float array and each row's line number. No row, a cell
    numpy does not read as a number (`1_0` is not one) or a row of another
    width than the first raises `error`, naming the file and the line."""
    numbers = [n for n, line in enumerate(lines, start) if line]
    if not numbers:
        raise error(f"{path}: no samples")
    try:
        return np.loadtxt(lines, delimiter=",", comments=None,
                          ndmin=2), numbers
    except ValueError as exc:
        # the same parser, line by line, names the line
        width = lines[numbers[0] - start].count(",")
        for n in numbers:
            line = lines[n - start]
            if line.count(",") != width:
                raise error(f"{path} line {n}: the number of columns changed "
                            f"from {width + 1} to {line.count(',') + 1}")
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError as bad:
                raise error(f"{path} line {n}: " + str(bad).replace(
                    " at row 0, column", " in column")) from None
        raise error(f"{path}: {exc}") from None
