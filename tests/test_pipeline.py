"""The run layer as a library entry: `fuzrank.pipeline` gives what the
commands print, and each of its errors carries the command's message and
exit code."""

import json
from importlib.resources import files

import pytest
from click.testing import CliRunner
from test_cli import (CHAIN, RUN_TIME_INPUT_RULE_IDS, RUN_TIME_INPUT_RULES, _commands_in_child,
                      _overflow, _run_in_child)

from fuzrank import __version__, pipeline
from fuzrank.cli import main
from fuzrank.graph import DEFAULT_PATH_CAP, export_dot
from fuzrank.pipeline import RunError
from fuzrank.report import RunReport, fingerprint
from fuzrank.scenario import parse_scenario

SCENARIO = files("fuzrank") / "data" / "paper_s4.json"
DATA = SCENARIO.read_bytes()


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def scenario_file(tmp_path):
    dst = tmp_path / "scenario.json"
    dst.write_bytes(DATA)
    return dst


def _unread_cap():
    raise AssertionError("the path cap was read")


def _report(scenario, warned, **parts):
    warnings = scenario.warnings + warned
    return RunReport(fingerprint(DATA), __version__, warnings=warnings, **parts).render("json")


def test_paper_results_are_what_the_commands_print(runner, scenario_file):
    scenario = parse_scenario(DATA.decode("utf-8"))
    rankings, warned = pipeline.rank(scenario, "both")
    scores, scored = pipeline.score_assets(scenario)
    kept = pipeline.select_graph(scenario, "RAN-control", lambda: DEFAULT_PATH_CAP)
    expected = [
        (["rank", "--format", "json"], _report(scenario, warned, rankings=rankings)),
        (["veability", "--format", "json"], _report(scenario, scored, assets=scores)),
        (["graph", "--goal", "RAN-control"], export_dot(kept)),
        (["graph"], export_dot(pipeline.select_graph(scenario, None, _unread_cap))),
    ]
    for (command, *options), text in expected:
        result = runner.invoke(main, [command, str(scenario_file), *options])
        assert result.exit_code == 0, result.output
        assert result.stdout == text


def _expect_cli_error(runner, args, error, **invoke):
    result = runner.invoke(main, args, **invoke)
    assert (result.exit_code, result.stdout) == (error.exit_code, "")
    assert result.stderr == f"Error: {error.message}\n"


@pytest.mark.parametrize(
    "command, doc, message", RUN_TIME_INPUT_RULES, ids=RUN_TIME_INPUT_RULE_IDS
)
def test_run_time_input_rules_are_run_errors(runner, tmp_path, command, doc, message):
    text = json.dumps({k: v for k, v in doc.items() if v is not None})
    scenario = parse_scenario(text)
    with pytest.raises(RunError) as exc:
        if command[0] == "rank":
            pipeline.rank(scenario, command[command.index("--engine") + 1])
        else:
            pipeline.score_assets(scenario)
    assert (exc.value.message, exc.value.exit_code) == (message, 1)
    path = tmp_path / "doc.json"
    path.write_text(text)
    _expect_cli_error(runner, [command[0], str(path), *command[1:]], exc.value)


def test_float_fault_is_a_computation_run_error(runner, scenario_file, monkeypatch):
    monkeypatch.setattr("fuzrank.fuzzy.rank_fuzzy", _overflow)
    with pytest.raises(RunError) as exc:
        pipeline.rank(parse_scenario(DATA.decode("utf-8")), "fuzzy")
    assert exc.value.message == (
        "computation failed in fuzzy: overflow encountered in scalar multiply"
    )
    assert exc.value.exit_code == 2
    _expect_cli_error(runner, ["rank", str(scenario_file), "--engine", "fuzzy"], exc.value)


def test_path_cap_is_a_computation_run_error(runner, scenario_file):
    with pytest.raises(RunError) as exc:
        pipeline.select_graph(parse_scenario(DATA.decode("utf-8")), "RAN-control", lambda: 1)
    assert exc.value.message.startswith("computation failed: ")
    assert "more than 1" in exc.value.message
    assert exc.value.exit_code == 2
    args = ["graph", str(scenario_file), "--goal", "RAN-control"]
    _expect_cli_error(runner, args, exc.value, env={"FUZRANK_PATH_CAP": "1"})


def test_a_bad_goal_is_reported_before_the_cap_is_read():
    scenario = parse_scenario(DATA.decode("utf-8"))
    with pytest.raises(RunError, match="^goal node 'nope' is not in the graph$"):
        pipeline.select_graph(scenario, "nope", _unread_cap)


def test_an_unknown_engine_is_refused_before_any_work(monkeypatch):
    from fuzrank import fuzzy

    def unpooled(*args):
        raise AssertionError("the ratings were pooled")

    scenario = parse_scenario(DATA.decode("utf-8"))
    monkeypatch.setattr(fuzzy, "aggregate_ratings", unpooled)
    message = r"^unknown engine 'fuzy'; use one of classic, fuzzy, both$"
    with pytest.raises(ValueError, match=message):
        pipeline.rank(scenario, "fuzy")


# --- which modules each entry point loads ------------------------------------------

# library code a row runs, by name
LIBRARY = {
    "parse a crisp document": (
        "from fuzrank.scenario import parse_scenario\n"
        "s = parse_scenario(open({crisp!r}).read())\n"
        "assert s.panel is None and s.pairwise and s.decision_matrix and s.graph\n"
    ),
    "parse a panel, select a goal": (
        "from fuzrank import cvss, graph, pipeline, report, scenario, veability\n"
        "s = scenario.parse_scenario(open({paper!r}).read())\n"
        "assert s.panel is not None\n"
        "pipeline.select_graph(s, 'RAN-control', lambda: graph.DEFAULT_PATH_CAP)\n"
    ),
}
# a command run as `python -m fuzrank.cli` runs it: as `__main__`, so
# `fuzrank.cli` is not among the modules
PROCESS = ("import runpy, sys\nsys.argv = ['fuzrank', *{!r}]\n"
           "runpy.run_module('fuzrank.cli', run_name='__main__')\n")

# The loading rule `pipeline` states, one row per entry point: the entry, the
# fuzrank.* modules loaded when it exits, and which of numpy, click, csv and
# dataclasses are. An entry is a command after `python -m fuzrank.cli` or `main`
# (`fuzrank.cli.main`), a key of LIBRARY, or code; `{name}` is a document's path.
LOADS = [
    ("import fuzrank.cli", "cli pipeline scenario", "numpy click"),
    ("import fuzrank.pipeline", "pipeline scenario", ""),
    ("python -m fuzrank.cli graph {paper}", "cvss graph pipeline scenario", "numpy click"),
    ("python -m fuzrank.cli graph {paper} --goal RAN-control", "cvss graph pipeline scenario",
     "numpy click"),
    ("python -m fuzrank.cli validate {paper}", "cvss pipeline scenario", "numpy click"),
    ("python -m fuzrank.cli rank {no_graph} --format json",
     "classic cvss fuzzy pipeline report scenario", "numpy click"),
    ("main rank {paper}", "classic cli cvss fuzzy pipeline report scenario", "numpy click"),
    ("main rank {paper} --format json", "classic cli cvss fuzzy pipeline report scenario",
     "numpy click"),
    ("main rank {paper} --format csv", "classic cli cvss fuzzy pipeline report scenario",
     "numpy click"),
    ("main veability {paper} --format json",
     "classic cli cvss fuzzy pipeline report scenario veability", "numpy click"),
    ("main veability {costed} --format json", "cli cvss pipeline report scenario veability",
     "numpy click"),
    ("main graph {paper} --goal RAN-control", "cli cvss graph pipeline scenario", "numpy click"),
    ("main validate {paper}", "cli cvss pipeline scenario", "numpy click"),
    ("main graph {graph_only} --goal f", "cli graph pipeline scenario", "numpy click"),
    ("main validate {graph_only}", "cli pipeline scenario", "numpy click"),
    ("parse a crisp document", "cvss scenario", ""),
    ("parse a panel, select a goal", "cvss graph pipeline report scenario veability", ""),
]
# at exit, on stderr: the fuzrank.* modules loaded, and which of the others are;
# an atexit hook, as the process entry ends by `os._exit` once the hooks have run
PROBE = ("import atexit, sys\natexit.register(lambda: print(\n"
         "    sorted(n[8:] for n in sys.modules if n.startswith('fuzrank.')),\n"
         "    [n for n in ('numpy', 'click', 'csv', 'dataclasses') if n in sys.modules],\n"
         "    file=sys.stderr))\n")


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict[str, str]:
    """The paper's scenario and four variants of it, as paths by name."""
    paper = json.loads(DATA)
    ones = {a: {c["id"]: 1 for c in paper["criteria"]} for a in paper["actions"]}
    variants = {
        "no_graph": {k: v for k, v in paper.items() if k != "graph"},
        "costed": {**paper, "vulnerabilities": [{**v, "atc_cost": 0.5}
                                                for v in paper["vulnerabilities"]]},
        "crisp": {**{k: v for k, v in paper.items() if k != "panel"}, "decision_matrix": ones},
        "graph_only": {"schema_version": "1",
                       "graph": {"nodes": CHAIN, "edges": [["c", "f"]], "targets": ["f"]}},
    }
    paths = {"paper": str(SCENARIO)}
    for name, doc in variants.items():
        path = tmp_path_factory.mktemp(name) / "doc.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("entry, modules, others", LOADS, ids=[row[0] for row in LOADS])
def test_entry_point_loads(documents, entry, modules, others):
    """A fresh interpreter that has run `entry` holds exactly its row's modules."""
    words = [word.format(**documents) for word in entry.split()]
    if words[0] == "main":
        code = _commands_in_child(words[1:])
    elif words[:3] == ["python", "-m", "fuzrank.cli"]:
        code = PROCESS.format(words[3:])
    else:
        code = LIBRARY.get(entry, entry).format(**documents)
    loaded = _run_in_child(PROBE + code).splitlines()[-1]
    assert loaded == f"{modules.split()} {others.split()}"
