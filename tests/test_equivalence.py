"""Reports pinned against the list-of-TFN engine that preceded the array-backed
one: the bundled paper scenario and one seeded 40x6x5 panel.

`golden_equivalence.json` holds the `rank --engine both` rankings (and, for
the paper scenario, the `veability` assets) printed by that engine. Strings,
ints and the document's structure must match exactly; floats within
1e-12 * max(1, |x|), because the array engine sums in another order.
"""

import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from fuzrank.cli import main
from fuzrank.scenario import bundled_scenario_path

GOLDEN = Path(__file__).with_name("golden_equivalence.json")
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


def current(tmp_path: Path) -> dict:
    panel = tmp_path / "panel.json"
    panel.write_text(json.dumps(panel_doc(40, 6, 5, seed=7)), encoding="utf-8")
    return {
        "paper_s4": reports(bundled_scenario_path(), ["rank", "veability"]),
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


if __name__ == "__main__":  # rewrite the golden file from the current engine
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(current(Path(tmp)), indent=1) + "\n", encoding="utf-8")
