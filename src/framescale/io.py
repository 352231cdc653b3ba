"""Decimal text instance files and the JSON result document.

Instance format: a header line "d n" (or "m n"), then d rows of n
whitespace-separated decimals. Marginals files are flat whitespace-separated
decimals. Decimal text keeps fixtures portable; 17 significant digits
round-trip binary64 exactly.

This module is the only reader of the instance format. ``rational`` and the
verify command's exact checks take the Fractions of the doubles read here,
so the float and exact checks see one matrix by construction.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import __version__


def _parse_floats(tokens: list[str]) -> np.ndarray:
    """The tokens as binary64 values, each read by Python's ``float()``.

    numpy's own string parser is not used: it is not ``float()``. Every token
    is converted before the finiteness check, so a token ``float()`` rejects
    is reported ahead of a non-finite one.
    """
    values = list(map(float, tokens))
    if not all(map(math.isfinite, values)):
        bad = next(t for t, x in zip(tokens, values) if not math.isfinite(x))
        raise ValueError(f"non-finite value {bad!r} in input")
    return np.array(values, dtype=np.float64)


def read_matrix_file(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'rows cols' header")
    try:
        d, n = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header {tokens[:2]!r}") from exc
    if d < 1 or n < 1:
        raise ValueError(f"{path}: header dimensions must be positive")
    body = tokens[2:]
    if len(body) != d * n:
        raise ValueError(f"{path}: expected {d * n} entries, found {len(body)}")
    return _parse_floats(body).reshape(d, n)


def read_vector_file(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: no values")
    return _parse_floats(tokens)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_matrix_file(path, matrix: np.ndarray) -> None:
    d, n = matrix.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{d} {n}\n")
        for row in matrix:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def write_vector_file(path, vector: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(" ".join(_fmt(v) for v in vector) + "\n")


def result_document(result, kind: str, config_echo: dict) -> dict:
    """Serialize a ScalingResult into the stable JSON schema; the trace goes to its own file."""
    doc = {
        "status": result.status,
        "iterations": result.iterations,
        "final_error_sq": result.final_error_sq,
        "config": config_echo,
        "version": __version__,
    }
    if result.scaling is not None:
        key = "z" if kind == "frame" else "y"
        doc[key] = [float(v) for v in result.scaling]
    if result.certificate is not None:
        doc["certificate"] = [int(i) for i in result.certificate]
    return doc


def write_result(doc: dict, path=None) -> None:
    text = json.dumps(doc)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")


def write_trace_jsonl(path, trace) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for rec in trace:
            fh.write(json.dumps(rec.as_dict()) + "\n")


def read_result(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)
