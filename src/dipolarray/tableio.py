"""Plain-text column tables with deterministic formatting.

Output files must be byte-identical across re-runs of the same configuration,
so floats are written with ``repr`` (shortest round-trip form) and metadata is
emitted in sorted key order.  Files are small; no binary formats here.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np


def _fmt(value) -> str:
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    if isinstance(value, (np.complexfloating, complex)):
        return repr(complex(value))
    return str(value)


def write_table(path, columns: Mapping[str, Sequence], meta: Mapping[str, object] | None = None) -> None:
    """Write named columns (equal length) as a '#'-commented text table."""
    names = list(columns)
    if not names:
        raise ValueError("no columns given")
    lengths = {len(columns[n]) for n in names}
    if len(lengths) != 1:
        raise ValueError(f"column lengths differ: { {n: len(columns[n]) for n in names} }")
    meta = meta or {}
    cols = [columns[n] for n in names]
    with open(path, "w") as fh:
        for key in sorted(meta):
            fh.write(f"# {key} = {_fmt(meta[key])}\n")
        fh.write("# " + " ".join(names) + "\n")
        for r in range(lengths.pop()):
            fh.write(" ".join(_fmt(c[r]) for c in cols) + "\n")


def read_table(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Parse a table written by `write_table`.

    Returns (columns, meta); numeric columns come back as float arrays and
    metadata values stay as strings.
    """
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    meta[key.strip()] = val.strip()
                else:
                    header = body.split()
                continue
            rows.append(line.split())
    if header is None:
        raise ValueError(f"{path}: missing column header line")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: data row {i + 1} has {len(row)} fields, "
                             f"expected {len(header)}")
    columns: dict[str, np.ndarray] = {}
    for k, name in enumerate(header):
        raw = [row[k] for row in rows]
        try:
            columns[name] = np.array([float(v) for v in raw])
        except ValueError:
            columns[name] = np.array(raw)
    return columns, meta
