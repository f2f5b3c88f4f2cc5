"""Triangular fuzzy numbers and the linguistic rating scale built on them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """Fuzzy quantity (a, b, c): support [a, c], full membership at the peak b.

    A degenerate triplet a == b == c represents a crisp value.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not (self.a <= self.b <= self.c):
            raise ValueError(
                f"TFN components must satisfy a <= b <= c, got ({self.a}, {self.b}, {self.c})"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def __repr__(self) -> str:
        return f"TFN({self.a:g}, {self.b:g}, {self.c:g})"


TFN = TriangularFuzzyNumber


class LinguisticScale:
    """Ordered mapping of rating labels (VL .. VH) to triangular fuzzy numbers."""

    def __init__(self, entries: Mapping[str, TriangularFuzzyNumber]):
        if not entries:
            raise ValueError("linguistic scale needs at least one entry")
        self._entries: dict[str, TriangularFuzzyNumber] = dict(entries)

    def __getitem__(self, label: str) -> TriangularFuzzyNumber:
        try:
            return self._entries[label]
        except KeyError:
            raise KeyError(
                f"unknown linguistic label {label!r}; valid labels: {', '.join(self.labels)}"
            ) from None

    def __contains__(self, label: str) -> bool:
        return label in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinguisticScale):
            return NotImplemented
        return self._entries == other._entries

    @property
    def labels(self) -> list[str]:
        return list(self._entries)

    def items(self) -> list[tuple[str, TriangularFuzzyNumber]]:
        return list(self._entries.items())

    def __repr__(self) -> str:
        body = ", ".join(f"{label}={tfn.as_tuple()}" for label, tfn in self._entries.items())
        return f"LinguisticScale({body})"


def default_scale() -> LinguisticScale:
    """Five-level rating scale: Very Low through Very High."""
    return LinguisticScale(
        {
            "VL": TFN(1, 1, 3),
            "L": TFN(1, 3, 5),
            "AV": TFN(3, 5, 7),
            "H": TFN(5, 7, 9),
            "VH": TFN(7, 9, 9),
        }
    )

