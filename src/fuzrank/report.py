"""Run-report assembly and rendering (plain table, JSON, CSV).

Reports are deterministic for identical input files: the scenario content
hash is embedded, numeric table output is fixed at three decimals, and JSON
carries full precision. Every ranking block states the formula behind its
cost column, because the two engines orient their cost values oppositely.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .classic import RankingResult
from .veability import AssetScore

REPORT_VERSION = "1"


def fingerprint(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class RunReport:
    scenario_fingerprint: str
    tool_version: str
    rankings: tuple[RankingResult, ...] = ()
    assets: tuple[AssetScore, ...] = ()
    warnings: tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "report_version": REPORT_VERSION,
            "tool_version": self.tool_version,
            "scenario_fingerprint": self.scenario_fingerprint,
            "warnings": list(self.warnings),
        }
        if self.rankings:
            doc["rankings"] = [
                {
                    "engine": r.engine,
                    "cost_definition": r.cost_definition,
                    "cost_orientation": r.cost_orientation,
                    "minimum_effort_action": r.minimum_effort_action,
                    "actions": [
                        {
                            "action": e.action,
                            "d_plus": e.d_plus,
                            "d_minus": e.d_minus,
                            "cost": e.cost,
                            "benefit": e.benefit,
                            "rank": e.rank,
                        }
                        for e in r.entries
                    ],
                }
                for r in self.rankings
            ]
        if self.assets:
            doc["assets"] = [
                {
                    "asset": a.asset_id,
                    "V": a.vulnerability,
                    "E": a.exploitability,
                    "A": a.attackability,
                    "veability": a.veability,
                }
                for a in self.assets
            ]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False) + "\n"

    def to_table(self) -> str:
        lines: list[str] = []
        for r in self.rankings:
            lines.append(f"== {r.engine} engine ==")
            lines.append(f"cost = {r.cost_definition}  ({r.cost_orientation})")
            lines.append(f"minimum-effort action: {r.minimum_effort_action}")
            lines.append(f"{'action':<12} {'d+':>8} {'d-':>8} {'cost':>8} {'benefit':>8} {'rank':>5}")
            for e in r.by_rank():
                lines.append(
                    f"{e.action:<12} {e.d_plus:>8.3f} {e.d_minus:>8.3f} "
                    f"{e.cost:>8.3f} {e.benefit:>8.3f} {e.rank:>5d}"
                )
            lines.append("")
        if self.assets:
            lines.append("== VEA-bility ==")
            lines.append(f"{'asset':<20} {'V':>7} {'E':>7} {'A':>7} {'veability':>10}")
            for a in self.assets:
                lines.append(
                    f"{a.asset_id:<20} {a.vulnerability:>7.3f} {a.exploitability:>7.3f} "
                    f"{a.attackability:>7.3f} {a.veability:>10.3f}"
                )
            lines.append("")
        if self.warnings:
            lines.append("warnings:")
            lines.extend(f"  - {w}" for w in self.warnings)
            lines.append("")
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if self.rankings:
            writer.writerow(
                ["engine", "action", "d_plus", "d_minus", "cost", "benefit", "rank"]
            )
            for r in self.rankings:
                for e in r.by_rank():
                    writer.writerow(
                        [r.engine, e.action, repr(e.d_plus), repr(e.d_minus),
                         repr(e.cost), repr(e.benefit), e.rank]
                    )
        if self.assets:
            writer.writerow(["asset", "V", "E", "A", "veability"])
            for a in self.assets:
                writer.writerow(
                    [a.asset_id, repr(a.vulnerability), repr(a.exploitability),
                     repr(a.attackability), repr(a.veability)]
                )
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.to_table()
