"""The run layer as a library entry: `fuzrank.pipeline` gives what the
commands print, and each of its errors carries the command's message and
exit code."""

import json
from importlib.resources import files

import pytest
from click.testing import CliRunner
from test_cli import RUN_TIME_INPUT_RULE_IDS, RUN_TIME_INPUT_RULES, _loaded_in_child, _overflow

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


def test_parsing_a_panel_and_selecting_its_graph_load_no_numpy():
    # numpy loads only with the engines: a panel's label codes are bytes
    code = (
        "from fuzrank import cvss, graph, pipeline, report, scenario, veability\n"
        f"parsed = scenario.parse_scenario(open({str(SCENARIO)!r}).read())\n"
        "assert parsed.panel is not None\n"
        "pipeline.select_graph(parsed, 'RAN-control', lambda: graph.DEFAULT_PATH_CAP)\n"
    )
    assert _loaded_in_child(code, ("numpy",)) == []


def test_import_loads_no_engine_and_no_front_end():
    names = ("fuzrank.classic", "fuzrank.fuzzy", "fuzrank.veability", "fuzrank.cvss",
             "fuzrank.graph", "fuzrank.report", "numpy", "click")
    assert _loaded_in_child("import fuzrank.pipeline", names) == []
