"""VEA-bility asset scoring: Vulnerability, Exploitability and Attackability
dimensions combined into a [0, 10] security score where higher means more
secure.

The Attackability dimension is driven by the attacker-action closeness values
produced by the ranking engines: A = 10 x mean closeness over the asset's
vulnerabilities. The mean (rather than a sum) keeps the dimension inside
[0, 10] for any vulnerability count.

The inputs, `VulnerabilityRecord` and `AssetProfile`, are defined in
`scenario`, whose parser builds them and checks their input ranges, with
JSON-path messages; only the output, `AssetScore`, is defined here.
`veability_score` clamps each of its values into [0, 10], a NaN to 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .scenario import AssetProfile, VulnerabilityRecord


class AssetScore(NamedTuple):
    """One asset's three dimensions and its score, each in [0, 10]."""

    asset_id: str
    vulnerability: float
    exploitability: float
    attackability: float
    veability: float


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
