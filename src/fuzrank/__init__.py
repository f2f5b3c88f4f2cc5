"""Attack-action ranking over 5G-style attack graphs (crisp and fuzzy TOPSIS)
and VEA-bility asset scoring.

The supported entry points are the `fuzrank` command line and the module
functions the benchmark (`perfbench/workloads.py`) imports to run the same
work in process. The command line's process entry is `fuzrank.__main__`
(the installed script and `python -m fuzrank`); its commands live in
`fuzrank.cli`, whose `main` tests and library callers invoke. The module
functions are `scenario.parse_scenario`, the fuzzy stages
`aggregate_ratings`, `normalize_fuzzy`, `apply_weights` and `rank_fuzzy`,
`classic.derive_weights` and `rank_classic`, `graph.subgraph_to_goal`,
`export_dot` and `enumerate_paths`, and `veability.veability_score`, with
the report in `report.RunReport`. Import them from their modules; the
package itself carries only the version.
"""

__version__ = "1.0.0"
