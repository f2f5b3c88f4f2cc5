"""Triangular fuzzy numbers and the default linguistic rating scale.

A scale is a plain mapping from rating label to TFN, in declaration order:
`default_scale()` returns the five-level table, and a scenario's `scale`
override is parsed into a dict of the same shape. The parser checks every
label against that mapping, so the engines only look labels up.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TFN:
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


def default_scale() -> dict[str, TFN]:
    """Five-level rating scale: Very Low through Very High."""
    return {
        "VL": TFN(1, 1, 3),
        "L": TFN(1, 3, 5),
        "AV": TFN(3, 5, 7),
        "H": TFN(5, 7, 9),
        "VH": TFN(7, 9, 9),
    }
