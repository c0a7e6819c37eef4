"""Plain-text input/output: matrix files, grid-data files, problem configs,
and the CSV/report writers.

Matrix file format: line 1 is `sym <2n>` or `herm <n>`; each following line
is one row of whitespace-separated decimals.  For `herm`, every entry is a
`re,im` pair (comma, no space).  All floating-point output is printed with 17
significant digits so repeated runs are byte-comparable.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ParseError
from .matrixcore import as_symmetric, embed


def fmt(x) -> str:
    return "%.17g" % x


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse a matrix file into the 2n x 2n symmetric representation.

    Hermitian input is embedded and then validated as that embedding.  Raises
    ParseError with a row diagnostic on malformed content (a non-finite number
    included) and ValueError from `as_symmetric` on a bad dimension or an
    asymmetric matrix.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2 or head[0] not in ("sym", "herm"):
        raise ParseError(f"line 1: expected 'sym <2n>' or 'herm <n>', got {lines[0]!r}")
    try:
        size = int(head[1])
    except ValueError:
        raise ParseError(f"line 1: bad dimension {head[1]!r}")
    sym = head[0] == "sym"
    if len(lines) - 1 != size:
        raise ParseError(f"expected {size} rows, got {len(lines) - 1}")
    entries = []
    for r, ln in enumerate(lines[1:], start=1):
        parts = ln.split()
        if len(parts) != size:
            raise ParseError(f"row {r}: expected {size} entries")
        for c, tok in enumerate(parts):
            pieces = [tok] if sym else tok.split(",")
            if not sym and len(pieces) != 2:
                raise ParseError(f"row {r}, column {c + 1}: expected 're,im', got {tok!r}")
            try:
                entries.append(complex(*map(parse_finite, pieces)))
            except ValueError:
                raise ParseError(f"row {r}, column {c + 1}: bad or non-finite number {tok!r}")
    M = np.array(entries, dtype=complex).reshape(size, size)
    return as_symmetric(M.real if sym else embed(M))


def load_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def format_matrix_text(M) -> str:
    """Symmetric matrix in the `sym` file format (counterexample dumps)."""
    M = as_symmetric(M)
    lines = [f"sym {M.shape[0]}"]
    for row in M:
        lines.append(" ".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_finite(tok: str) -> float:
    """float(tok), with ValueError for a malformed or non-finite number."""
    x = float(tok)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {tok!r}")
    return x


def parse_grid_values(text: str, expected: int) -> np.ndarray:
    """Grid-data file: one finite value per line, lexicographic point order."""
    vals = []
    for i, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            vals.append(parse_finite(ln))
        except ValueError:
            raise ParseError(f"line {i}: bad or non-finite number {ln!r}")
    if len(vals) != expected:
        raise ParseError(f"expected {expected} grid values, got {len(vals)}")
    return np.array(vals)


# every config key: the parse of its value, and what a value that parse
# rejects is called in the error message
_INTEGER = (int, "bad integer")
_INTEGERS = (lambda tok: [int(p) for p in tok.split(",")], "bad integer list")
_NUMBER = (parse_finite, "bad or non-finite number")
_NUMBERS = (lambda tok: [parse_finite(p) for p in tok.split(",")],
            "bad or non-finite number list")
_TEXT = (str, None)
CONFIG_KEYS = {
    "n": _INTEGER, "lo": _NUMBERS, "hi": _NUMBERS, "pointsPerAxis": _INTEGER,
    "theta": _NUMBER, "lambda": _NUMBER, "Lambda": _NUMBER, "boundary": _TEXT, "g": _TEXT,
    "maxIter": _INTEGER, "tol": _NUMBER, "refinements": _INTEGERS,
}


def parse_config(text: str, required) -> tuple:
    """Flat `key = value` config with `#` comments: (values, texts), the
    parsed value and the text as written of each key present.

    ParseError at the first fault, checked in this order: the lines, unknown
    keys, every value present (in file order, by its CONFIG_KEYS entry),
    then the keys of `required`.
    """
    texts = {}
    for i, line in enumerate(text.splitlines(), start=1):
        ln = line.split("#", 1)[0].strip()
        if not ln:
            continue
        key, _, val = ln.partition("=")
        key = key.strip()
        val = val.strip()
        if not key or not val:
            raise ParseError(f"line {i}: expected 'key = value', got {line.strip()!r}")
        if key in texts:
            raise ParseError(f"line {i}: duplicate key {key!r}")
        texts[key] = val
    unknown = set(texts) - set(CONFIG_KEYS)
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(sorted(unknown))}")
    values = {}
    for key, tok in texts.items():
        parse, what = CONFIG_KEYS[key]
        try:
            values[key] = parse(tok)
        except ValueError:
            raise ParseError(f"config key {key!r}: {what} {tok!r}") from None
    for key in required:
        if key not in values:
            raise ParseError(f"missing config key {key!r}")
    return values, texts


def field_csv(field) -> str:
    """Solution/residual field as CSV: point coordinates + value per row,
    lexicographic point order."""
    grid = field.grid
    d = grid.dim
    header = ",".join([f"x{a}" for a in range(d)] + ["value"])
    # each coordinate is formatted once per axis; the rows, coordinate prefix
    # then value, go through one format template (fmt's "%.17g")
    axes = [[fmt(c) + "," for c in grid.axis_coords(a)] for a in range(d)]
    values = field.values.reshape(-1).tolist()
    rows = [None] * (2 * len(values))
    rows[0::2] = map("".join, itertools.product(*axes))
    rows[1::2] = values
    return header + "\n" + ("%s%.17g\n" * len(values)) % tuple(rows)


def report_text(report) -> str:
    """SolveReport as key-value text, the outcome and then the problem
    solved (wall time goes to stderr, not here, to keep artifacts
    byte-deterministic)."""
    lines = [
        f"iterations = {report.iterations}",
        f"converged = {'true' if report.converged else 'false'}",
        f"final_residual = {fmt(report.final_residual)}",
        "residual_history = " + ",".join(fmt(r) for r in report.residual_history),
        "krylov_steps = " + ",".join(str(k) for k in report.krylov_steps),
        f"n = {report.n}",
        f"points_per_axis = {report.points_per_axis}",
        f"theta = {fmt(report.theta)}",
        f"tol = {fmt(report.tol)}",
        f"max_iter = {report.max_iter}",
    ]
    return "\n".join(lines) + "\n"


def convergence_csv(rows) -> str:
    lines = ["points_per_axis,h,max_error,observed_order"]
    for row in rows:
        order = "" if row.observed_order is None else fmt(row.observed_order)
        lines.append(f"{row.points_per_axis},{fmt(row.h)},{fmt(row.max_error)},{order}")
    return "\n".join(lines) + "\n"
