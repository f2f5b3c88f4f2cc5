"""VEA-bility asset scoring: Vulnerability, Exploitability and Attackability
dimensions combined into a [0, 10] security score where higher means more
secure.

The Attackability dimension is driven by the attacker-action closeness values
produced by the ranking engines: A = 10 x mean closeness over the asset's
vulnerabilities. The mean (rather than a sum) keeps the dimension inside
[0, 10] for any vulnerability count.

The inputs, `VulnerabilityRecord` and `AssetProfile`, are defined in
`scenario`, whose parser builds them and checks their input ranges, with
JSON-path messages; only the output, `AssetScore`, is defined and
range-checked here. Of the commands, only `veability` loads this module.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .scenario import AssetProfile, VulnerabilityRecord


class _AssetScoreFields(NamedTuple):
    asset_id: str
    vulnerability: float
    exploitability: float
    attackability: float
    veability: float


class AssetScore(_AssetScoreFields):
    """One asset's three dimensions and its score, each checked into [0, 10]."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> AssetScore:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields[1:], self[1:]):
            if not (0 <= value <= 10):
                raise ValueError(f"{name} must be in [0, 10], got {value!r}")
        return self


def severity(vuln: VulnerabilityRecord) -> float:
    """Average of the impact and temporal scores."""
    return (vuln.impact_score + vuln.temporal_score) / 2.0


def _exponential_average(scores: Sequence[float]) -> float:
    """ln of the summed exponentials, capped at 10; 0 for no scores."""
    if not scores:
        return 0.0
    return min(10.0, math.log(math.fsum(math.exp(s) for s in scores)))


def vulnerability_dim(asset: AssetProfile) -> float:
    return _exponential_average([severity(v) for v in asset.vulnerabilities])


def exploitability_dim(asset: AssetProfile) -> float:
    pooled = _exponential_average([v.exploitability_score for v in asset.vulnerabilities])
    return pooled * asset.services_on_asset / asset.network_services_total


def attackability_dim(asset: AssetProfile) -> float:
    if not asset.vulnerabilities:
        return 0.0
    mean_cost = math.fsum(v.atc_cost for v in asset.vulnerabilities) / len(asset.vulnerabilities)
    return 10.0 * mean_cost


def veability_score(asset: AssetProfile) -> AssetScore:
    """Composite score 10 - (V + E + A) / 3, clamped into [0, 10]."""
    v = _clamp(vulnerability_dim(asset))
    e = _clamp(exploitability_dim(asset))
    a = _clamp(attackability_dim(asset))
    return AssetScore(
        asset_id=asset.asset_id,
        vulnerability=v,
        exploitability=e,
        attackability=a,
        veability=_clamp(10.0 - (v + e + a) / 3.0),
    )


def _clamp(x: float) -> float:
    return min(10.0, max(0.0, x))
