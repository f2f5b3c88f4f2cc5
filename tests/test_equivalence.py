"""Reports pinned against the list-of-TFN engine that preceded the array-backed
one: the bundled paper scenario and one seeded 40x6x5 panel.

`golden_equivalence.json` holds the `rank --engine both` rankings (and, for
the paper scenario, the `veability` assets) printed by that engine. Strings,
ints and the document's structure must match exactly; floats within
1e-12 * max(1, |x|), because the array engine sums in another order.
"""

import json
import random
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner

from fuzrank.cli import main

from golden_ratings import CLOSENESS_CASES

GOLDEN = Path(__file__).with_name("golden_equivalence.json")
SCENARIO = files("fuzrank") / "data" / "paper_s4.json"
LABELS = ("VL", "L", "AV", "H", "VH")
TOL = 1e-12


def panel_doc(m: int, n: int, k: int, seed: int) -> dict:
    """m actions x n criteria (alternating benefit, cost) x k raters, labels
    uniform over VL..VH, with a consistent pairwise matrix for the classic
    engine."""
    rng = random.Random(seed)
    actions = [f"A{i}" for i in range(m)]
    crits = [f"C{j}" for j in range(n)]
    raters = [f"CVE-2020-{1000 + r}" for r in range(k)]
    w = [rng.uniform(1.0, 9.0) for _ in crits]
    return {
        "schema_version": "1",
        "criteria": [
            {"id": c, "kind": "benefit" if j % 2 == 0 else "cost"}
            for j, c in enumerate(crits)
        ],
        "actions": actions,
        "panel": {
            "decision_makers": raters,
            "ratings": {
                r: {a: {c: rng.choice(LABELS) for c in crits} for a in actions}
                for r in raters
            },
            "weights": {r: {c: rng.choice(LABELS) for c in crits} for r in raters},
        },
        "pairwise": [[wi / wj for wj in w] for wi in w],
    }


def reports(path: Path, commands: list[str]) -> dict:
    runner = CliRunner()
    out = {}
    for command in commands:
        args = [command, str(path), "--format", "json"]
        if command == "rank":
            args += ["--engine", "both"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        out[command] = doc["rankings"] if command == "rank" else doc["assets"]
    return out


def paper_file(tmp_path: Path) -> Path:
    paper = tmp_path / "paper_s4.json"
    paper.write_bytes(SCENARIO.read_bytes())
    return paper


def current(tmp_path: Path) -> dict:
    panel = tmp_path / "panel.json"
    panel.write_text(json.dumps(panel_doc(40, 6, 5, seed=7)), encoding="utf-8")
    return {
        "paper_s4": reports(paper_file(tmp_path), ["rank", "veability"]),
        "panel_40x6x5_seed7": reports(panel, ["rank"]),
    }


def assert_close(got, want, path="$"):
    if isinstance(want, float):
        assert isinstance(got, (int, float)), path
        assert abs(got - want) <= TOL * max(1.0, abs(want)), (path, got, want)
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    else:
        assert got == want, (path, got, want)


@pytest.mark.parametrize("name", ["paper_s4", "panel_40x6x5_seed7"])
def test_reports_match_pinned_engine(tmp_path, name):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert_close(current(tmp_path)[name], want, name)


def test_paper_gap_pinned_against_published_table(tmp_path):
    """The fuzzy engine on `paper_s4` against the published worked example.

    Published closeness (`golden_ratings.CLOSENESS_CASES`): A4 0.849,
    A3 0.521, A1 0.492, A2 0.486, with d+ between 1.33 and 4.33.
    The engine: A4 0.519, A2 0.509, A1 0.494, A3 0.455, with d+ between
    10.42 and 12.15.

    So rank 1 (A4) agrees and the order of ranks 2-4 does not: the table
    has A3, A1, A2 and the engine A2, A1, A3, with only A1 in the same place.
    Per action, the engine's d+ is 2.6 to 7.8 times the published one and
    its d- 1.5 to 2.9 times, and its closeness values span 0.455-0.519
    against 0.486-0.849. Without the paper's method text the cause is
    unknown, so the engine is not fitted to the table; both sides are pinned
    so that a change to either shows here.
    """
    published = sorted(CLOSENESS_CASES, key=lambda case: -case[3])
    assert [(action, cc) for action, _, _, cc in published] == [
        ("A4", 0.849), ("A3", 0.521), ("A1", 0.492), ("A2", 0.486)
    ]
    published_d_plus = [d_plus for _, d_plus, _, _ in published]
    assert (round(min(published_d_plus), 2), round(max(published_d_plus), 2)) == (1.33, 4.33)

    rankings = reports(paper_file(tmp_path), ["rank"])["rank"]
    (fuzzy,) = [r for r in rankings if r["engine"] == "fuzzy"]
    ranked = sorted(fuzzy["actions"], key=lambda e: e["rank"])
    assert [(e["action"], round(e["cost"], 3)) for e in ranked] == [
        ("A4", 0.519), ("A2", 0.509), ("A1", 0.494), ("A3", 0.455)
    ]
    d_plus = [e["d_plus"] for e in ranked]
    assert (round(min(d_plus), 2), round(max(d_plus), 2)) == (10.42, 12.15)

    assert ranked[0]["action"] == published[0][0] == "A4"
    assert [e["action"] for e in ranked[1:]] == ["A2", "A1", "A3"]
    assert [action for action, *_ in published[1:]] == ["A3", "A1", "A2"]


if __name__ == "__main__":  # rewrite the golden file from the current engine
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(current(Path(tmp)), indent=1) + "\n", encoding="utf-8")
