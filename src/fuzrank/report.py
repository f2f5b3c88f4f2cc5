"""Run-report assembly and rendering (plain table, JSON, CSV).

Reports are deterministic for identical input files: the scenario content
hash is embedded, numeric table output is fixed at three decimals, and JSON
carries full precision. Every ranking block states the formula behind its
cost column, because the two engines orient their cost values oppositely.

The JSON is laid out by hand from one template per header, ranking block,
action row and asset row, not by `json.dumps`, whose `indent` always takes the
pure-Python encoder. Its bytes equal `json.dumps(doc, indent=2,
allow_nan=False) + "\\n"` of the same document, which `tests/test_report.py`
checks against the document built as plain dicts.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _ascii
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .classic import RankingResult
from .veability import AssetScore

REPORT_VERSION = "1"

# The JSON report in the layout of json.dumps(indent=2): the header, one
# block per ranking, one row per ranked action and one per asset.
_HEADER = """{
  "report_version": %s,
  "tool_version": %s,
  "scenario_fingerprint": %s,
  "warnings": %s"""
_RANKING = """    {
      "engine": %s,
      "cost_definition": %s,
      "cost_orientation": %s,
      "minimum_effort_action": %s,
      "actions": [
%s
      ]
    }"""
_ACTION = """        {
          "action": %s,
          "d_plus": %s,
          "d_minus": %s,
          "cost": %s,
          "benefit": %s,
          "rank": %s
        }"""
_ASSET = """    {
      "asset": %s,
      "V": %s,
      "E": %s,
      "A": %s,
      "veability": %s
    }"""


def _floats(values: tuple[float, ...]) -> Iterator[str]:
    """Each float as json.dumps writes it; like json.dumps(allow_nan=False),
    refuse a NaN or infinity with ValueError."""
    if not all(map(math.isfinite, values)):
        bad = next(x for x in values if not math.isfinite(x))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return map(float.__repr__, values)


def _strings(values: tuple[str, ...]) -> Iterator[str]:
    return map(_ascii, values)


def _ints(values: tuple[int, ...]) -> Iterator[str]:
    return map(int.__repr__, values)


_Format = Callable[[tuple], Iterator[str]]
_ACTION_FIELDS = attrgetter("action", "d_plus", "d_minus", "cost", "benefit", "rank")
_ACTION_FORMATS: tuple[_Format, ...] = (_strings, _floats, _floats, _floats, _floats, _ints)
_ASSET_FIELDS = attrgetter(
    "asset_id", "vulnerability", "exploitability", "attackability", "veability"
)
_ASSET_FORMATS: tuple[_Format, ...] = (_strings, _floats, _floats, _floats, _floats)


def _rows(template: str, items: Iterable, fields: attrgetter, formats: tuple[_Format, ...]) -> str:
    """`template` filled once per item, joined by ",\\n". The fields are read
    and formatted a column at a time: formats[i] writes column i."""
    columns = zip(*map(fields, items))
    return ",\n".join(map(template.__mod__, zip(*(f(c) for f, c in zip(formats, columns)))))


def fingerprint(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class RunReport:
    scenario_fingerprint: str
    tool_version: str
    rankings: tuple[RankingResult, ...] = ()
    assets: tuple[AssetScore, ...] = ()
    warnings: tuple[str, ...] = field(default=())

    def to_json(self) -> str:
        """The report as JSON, laid out by hand from the templates above.

        Its bytes equal `json.dumps(doc, indent=2, allow_nan=False) + "\\n"`
        of the same document: strings are escaped by the encoder's own
        `encode_basestring_ascii`, floats written by `float.__repr__`, and a
        NaN or infinity raises ValueError. `rankings` and `assets` appear
        only when nonempty.
        """
        warnings = ",\n    ".join(map(_ascii, self.warnings))
        sections = [
            _HEADER % (
                _ascii(REPORT_VERSION),
                _ascii(self.tool_version),
                _ascii(self.scenario_fingerprint),
                f"[\n    {warnings}\n  ]" if warnings else "[]",
            )
        ]
        if self.rankings:
            blocks = [
                _RANKING % (
                    _ascii(r.engine),
                    _ascii(r.cost_definition),
                    _ascii(r.cost_orientation),
                    _ascii(r.minimum_effort_action),
                    _rows(_ACTION, r.entries, _ACTION_FIELDS, _ACTION_FORMATS),
                )
                for r in self.rankings
            ]
            sections.append(',\n  "rankings": [\n%s\n  ]' % ",\n".join(blocks))
        if self.assets:
            rows = _rows(_ASSET, self.assets, _ASSET_FIELDS, _ASSET_FORMATS)
            sections.append(',\n  "assets": [\n%s\n  ]' % rows)
        sections.append("\n}\n")
        return "".join(sections)

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
