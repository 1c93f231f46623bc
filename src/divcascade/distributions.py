"""Probability-vector forms of the measures, plus ingestion/validation.

Every measure in the catalog extends from a pair of positive reals to a
pair of discrete distributions by summing componentwise, which is where
the divergence interpretation lives.

Everything here runs on Python floats and the standard library, so a
``compute --p/--q`` never loads numpy: only ``ProbVector.as_array``
imports it, and ``sample_simplex`` uses the numpy generator it is given.
Each term q_i * f(p_i / q_i) has the bits of ``Measure.value`` and of
the same element of an array evaluation, and the terms are summed by
``math.fsum``: the exact sum rounded once, the same in any order and on
every CPU.  The price is one interpreted evaluation per component,
1.7-2.7 us each on a Xeon core under CPython 3.11: nothing beside a
process start for a file of a few hundred entries, but at n = 1e5 a
divergence takes 0.17-0.27 s, 100-150 times numpy's array evaluation.
``validate`` costs about 0.55 us an entry.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from . import catalog

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NonPositiveEntry", "SumOutOfTolerance", "ProbVector", "validate",
    "divergence", "load_distribution", "sample_simplex",
]


class NonPositiveEntry(ValueError):
    """An entry of a would-be probability vector is not positive and finite."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"entry {index} is {value!r}; all entries must "
                         "be positive and finite")


class SumOutOfTolerance(ValueError):
    """The entries do not sum to 1 within the accepted tolerance."""

    def __init__(self, total: float, eps: float):
        self.sum = total
        self.eps = eps
        super().__init__(f"entries sum to {total!r}, off by more than "
                         f"{eps} from 1")


@dataclass(frozen=True)
class ProbVector:
    """An exactly renormalized distribution of positive finite floats."""

    entries: tuple[float, ...]

    def __post_init__(self):
        for i, v in enumerate(self.entries):
            if not (type(v) is float and 0 < v < math.inf):
                raise NonPositiveEntry(i, v)

    @property
    def n(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        """The entries as a float numpy array (this loads numpy)."""
        import numpy as np
        return np.array(self.entries, dtype=float)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def _fsum(terms: list[float]) -> float:
    """Exact sum of the terms rounded once; IEEE's sum if one is not finite.

    ``math.fsum`` gives both except in two cases, where it raises: on
    inf + -inf (IEEE: NaN), and when a partial sum of finite terms
    overflows; the exact rational sum then rounds to +-inf or, with
    terms of both signs, possibly to a finite double.
    """
    try:
        return math.fsum(terms)
    except ValueError:
        return math.nan
    except OverflowError:
        exact = sum(map(Fraction, terms))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def validate(raw: Sequence[float], eps: float = 1e-9) -> ProbVector:
    """Check positivity and normalization, then renormalize exactly.

    Every entry must be a ``catalog.real``, positive and finite, and
    their sum, correctly rounded (``math.fsum``; inf if it overflows),
    within eps of 1, a ``catalog.finite`` >= 0.  Each entry is then
    divided by that sum, and one that rounds to 0 is refused.
    """
    eps = catalog.finite("eps", eps)
    if eps < 0:
        raise ValueError(f"eps must be >= 0, not {eps!r}")
    values = [catalog.real(f"entry {i}", v) for i, v in enumerate(raw)]
    if len(values) < 2:
        raise ValueError("a probability vector needs at least 2 entries")
    ProbVector(tuple(values))       # refuses an entry before the sum
    total = _fsum(values)
    if abs(total - 1.0) > eps:
        raise SumOutOfTolerance(total, eps)
    return ProbVector(tuple(v / total for v in values))


def _coerce(p) -> ProbVector:
    return p if isinstance(p, ProbVector) else validate(list(p))


def divergence(measure, p, q) -> float:
    """Sum of q_i * f(p_i / q_i) over components.

    Accepts ProbVector or any sequence that validates into one.  Each
    term is ``measure.value(p_i, q_i)`` of entries a ProbVector checked,
    and the sum is correctly rounded (``math.fsum``) unless a term is
    not finite, when it is IEEE's: NaN or +-inf, as an array sum gives.
    """
    m = catalog.get(measure)
    pv, qv = _coerce(p), _coerce(q)
    if len(pv) != len(qv):
        raise ValueError(f"length mismatch: {len(pv)} vs {len(qv)}")
    return _fsum([m._at(a, b) for a, b in zip(pv.entries, qv.entries)])


def load_distribution(source, format: str | None = None) -> ProbVector:
    """Read a distribution from a CSV or JSON file and validate it.

    CSV means one line or one column of decimal numbers, no header.
    JSON means a flat array of numbers.  When format is omitted it is
    inferred from the file extension.  A ``ValueError`` from ``validate``
    is raised again with the path in front of its message; a
    ``NonPositiveEntry`` or ``SumOutOfTolerance`` keeps its class and
    attributes.
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
    elif format == "csv":
        data = []
        with open(path, encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                for field, cell in enumerate(row):
                    cell = cell.strip()
                    if not cell:
                        continue
                    try:
                        data.append(float(cell))
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {lineno}, field {field + 1}: "
                            f"not a number: {cell!r}") from None
    else:
        raise ValueError(f"unknown format {format!r}; use 'csv' or 'json'")
    try:
        return validate(data)
    except ValueError as e:
        e.args = (f"{path}: {e}",)
        raise


def sample_simplex(n: int, rng: np.random.Generator,
                   floor: float = 1e-9) -> np.ndarray:
    """One draw from the flat Dirichlet via normalized exponentials.

    Samples with any entry below the floor are rejected and redrawn, so
    downstream generators never divide by a denormal probability.  n is
    an integer >= 2 and floor a finite real below 1/n, which some draw
    meets.
    """
    n, floor = catalog.index("n", n, 2), catalog.finite("floor", floor)
    if not floor < 1 / n:
        raise ValueError(f"floor must be < 1/n = {1 / n!r}, not {floor!r}")
    while True:
        e = rng.exponential(size=n)
        p = e / e.sum()
        if p.min() >= floor:
            return p
