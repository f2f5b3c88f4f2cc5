"""CVSS v3.1 vector parsing and the two base subscores.

Implements the public v3.1 impact and exploitability subscore formulas, the
inputs of VEA-bility; the base score built from them is not computed. The
specification's Roundup rule (ceiling at one decimal, with a guard against
floating-point noise) is applied to both subscores.

The weight tables state the allowed values: each base metric's values are
the keys of its weight table, in the order an error message lists them.
Privileges Required has one table per Scope; both hold the same values.
"""

from __future__ import annotations

import math


_ATTACK_VECTOR = {"N": 0.85, "A": 0.62, "L": 0.55, "P": 0.2}
_ATTACK_COMPLEXITY = {"L": 0.77, "H": 0.44}
_PRIVILEGES = {
    "U": {"N": 0.85, "L": 0.62, "H": 0.27},
    "C": {"N": 0.85, "L": 0.68, "H": 0.5},
}
_USER_INTERACTION = {"N": 0.85, "R": 0.62}
_CIA = {"N": 0.0, "L": 0.22, "H": 0.56}

# each base metric and the weight table whose keys are its allowed values
_ALLOWED = {
    "AV": _ATTACK_VECTOR, "AC": _ATTACK_COMPLEXITY, "PR": _PRIVILEGES["U"],
    "UI": _USER_INTERACTION, "S": _PRIVILEGES, "C": _CIA, "I": _CIA, "A": _CIA,
}
BASE_METRICS = tuple(_ALLOWED)


class CvssError(ValueError):
    pass


def parse_vector(text: str) -> dict[str, str]:
    """Parse a 'CVSS:3.1/AV:../..' vector string with all eight base metrics
    into a dict from metric to value, each value checked against its metric."""
    parts = text.strip().split("/")
    if not parts[0].startswith("CVSS:"):
        raise CvssError(f"not a CVSS vector string: {text!r}")
    version = parts[0][len("CVSS:"):]
    if version != "3.1":
        raise CvssError(f"unsupported CVSS version {version!r}; only 3.1 is supported")

    seen: dict[str, str] = {}
    for chunk in parts[1:]:
        if ":" not in chunk:
            raise CvssError(f"malformed metric segment {chunk!r} in {text!r}")
        key, value = chunk.split(":", 1)
        if key not in BASE_METRICS:
            raise CvssError(f"unknown metric {key!r} in {text!r} (only base metrics accepted)")
        if key in seen:
            raise CvssError(f"metric {key} appears twice in {text!r}")
        if value not in _ALLOWED[key]:
            raise CvssError(
                f"illegal value {value!r} for metric {key}; allowed: {'/'.join(_ALLOWED[key])}"
            )
        seen[key] = value
    missing = [m for m in BASE_METRICS if m not in seen]
    if missing:
        raise CvssError(f"missing base metric(s) {', '.join(missing)} in {text!r}")
    return seen


def roundup(value: float) -> float:
    """Ceiling at one decimal, via the integer dance the v3.1 spec prescribes."""
    scaled = round(value * 100_000)
    if scaled % 10_000 == 0:
        return scaled / 100_000.0
    return (math.floor(scaled / 10_000) + 1) / 10.0


def score_cvss(vector: str) -> dict[str, float]:
    """Impact and exploitability subscores of a vector string, each rounded
    up to one decimal. A negative impact reads 0."""
    m = parse_vector(vector)
    iss = 1.0 - (1.0 - _CIA[m["C"]]) * (1.0 - _CIA[m["I"]]) * (1.0 - _CIA[m["A"]])
    if m["S"] == "U":
        impact = 6.42 * iss
    else:
        impact = 7.52 * (iss - 0.029) - 3.25 * (iss - 0.02) ** 15

    exploitability = (
        8.22
        * _ATTACK_VECTOR[m["AV"]]
        * _ATTACK_COMPLEXITY[m["AC"]]
        * _PRIVILEGES[m["S"]][m["PR"]]
        * _USER_INTERACTION[m["UI"]]
    )

    return {
        "impact_subscore": roundup(max(impact, 0.0)),
        "exploitability_subscore": roundup(exploitability),
    }
