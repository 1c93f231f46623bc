"""Probability-vector forms of the measures, plus ingestion/validation.

Every measure in the catalog extends from a pair of positive reals to a
pair of discrete distributions by summing componentwise, which is where
the divergence interpretation lives.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import catalog

__all__ = [
    "NonPositiveEntry", "SumOutOfTolerance", "ProbVector", "validate",
    "divergence", "load_distribution", "sample_simplex",
]


class NonPositiveEntry(ValueError):
    """An entry of a would-be probability vector is zero or negative."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"entry {index} is {value!r}; all entries must "
                         "be strictly positive")


class SumOutOfTolerance(ValueError):
    """The entries do not sum to 1 within the accepted tolerance."""

    def __init__(self, total: float, eps: float):
        self.sum = total
        self.eps = eps
        super().__init__(f"entries sum to {total!r}, off by more than "
                         f"{eps} from 1")


@dataclass(frozen=True)
class ProbVector:
    """An exactly renormalized discrete distribution with positive mass."""

    entries: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def validate(raw: Sequence[float], eps: float = 1e-9) -> ProbVector:
    """Check positivity and normalization, then renormalize exactly."""
    values = []
    for i, v in enumerate(raw):
        try:
            values.append(float(v))
        except OverflowError:  # an int beyond the double range
            values.append(np.inf if v > 0 else -np.inf)
        except (TypeError, ValueError):
            raise ValueError(f"entry {i} is not a number: {v!r}") from None
    if len(values) < 2:
        raise ValueError("a probability vector needs at least 2 entries")
    for i, v in enumerate(values):
        if not v > 0 or not np.isfinite(v):
            raise NonPositiveEntry(i, v)
    total = float(np.sum(values))
    if abs(total - 1.0) > eps:
        raise SumOutOfTolerance(total, eps)
    return ProbVector(tuple(v / total for v in values))


def _coerce(p) -> np.ndarray:
    if isinstance(p, ProbVector):
        return p.as_array()
    return validate(list(p)).as_array()


def divergence(measure, p, q) -> float:
    """Sum of q_i * f(p_i / q_i) over components.

    Accepts ProbVector or any sequence that validates into one.
    """
    m = measure if isinstance(measure, catalog.Measure) else catalog.get(measure)
    pa = _coerce(p)
    qa = _coerce(q)
    if pa.shape != qa.shape:
        raise ValueError(f"length mismatch: {pa.size} vs {qa.size}")
    return float(np.sum(qa * m(pa / qa)))


def load_distribution(source, format: str | None = None) -> ProbVector:
    """Read a distribution from a CSV or JSON file and validate it.

    CSV means one line or one column of decimal numbers, no header.
    JSON means a flat array of numbers.  When format is omitted it is
    inferred from the file extension.
    """
    path = str(source)
    if format is None:
        format = "json" if path.lower().endswith(".json") else "csv"
    if format == "json":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: invalid JSON at line {e.lineno}, "
                                 f"column {e.colno}") from e
        if not isinstance(data, list):
            raise ValueError(f"{path}: expected a flat JSON array")
        for i, v in enumerate(data):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{path}: entry {i} is not a number: "
                                 f"{json.dumps(v)}")
        return validate(data)
    if format == "csv":
        values: list[float] = []
        with open(path, encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                for field, cell in enumerate(row):
                    cell = cell.strip()
                    if not cell:
                        continue
                    try:
                        values.append(float(cell))
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {lineno}, field {field + 1}: "
                            f"not a number: {cell!r}") from None
        return validate(values)
    raise ValueError(f"unknown format {format!r}; use 'csv' or 'json'")


def sample_simplex(n: int, rng: np.random.Generator,
                   floor: float = 1e-9) -> np.ndarray:
    """One draw from the flat Dirichlet via normalized exponentials.

    Samples with any entry below the floor are rejected and redrawn, so
    downstream generators never divide by a denormal probability.
    """
    if not 2 <= n:
        raise ValueError("need n >= 2")
    while True:
        e = rng.exponential(size=n)
        p = e / e.sum()
        if np.min(p) >= floor:
            return p
