"""Attack-action ranking over 5G-style attack graphs (crisp and fuzzy TOPSIS)
and VEA-bility asset scoring.

The supported entry points are the `fuzrank` command line, the run layer
`fuzrank.pipeline`, and the module functions the benchmark
(`perfbench/workloads.py`) imports to run the same work in process. The
command line's process entry is `fuzrank.__main__` (the installed script
and `python -m fuzrank`); its commands live in `fuzrank.cli`, whose `main`
tests and library callers invoke. Each command's work is one call into the
run layer, on a parsed scenario: `pipeline.rank` (with an engine named in
`pipeline.ENGINES`), `pipeline.score_assets` and `pipeline.select_graph`,
which raise `pipeline.RunError` with the command's message and exit code.
The module functions are `scenario.parse_scenario`,
`resolve_vulnerability_records` and `asset_profiles`, the fuzzy stages
`aggregate_ratings`, `normalize_fuzzy`, `apply_weights` and `rank_fuzzy`,
`classic.DecisionMatrix`, `derive_weights` and `rank_classic`,
`graph.subgraph_to_goal`, `export_dot`, `enumerate_paths` and
`DEFAULT_PATH_CAP`, and `veability.veability_score`, with the report in
`report.RunReport` and `fingerprint`. Import them from their modules; the
package itself carries only the version and `_start_process`.

The process policy. A `fuzrank` process (`fuzrank.__main__`, or `python -m
fuzrank.cli`) calls `_start_process` before click and numpy load. It
switches the cyclic collector off, so their imports trigger no collections,
and it sets `OPENBLAS_NUM_THREADS=1` so that numpy's OpenBLAS starts no
worker threads when it loads: fuzrank's largest BLAS or LAPACK call is the
eigen-decomposition of a pairwise matrix of at most 20 criteria, far too
small to use a second thread, while on a 2-core x86-64 host the worker that
OpenBLAS starts for the second core costs about 70 ms of CPU per process. A
caller who sets `OPENBLAS_NUM_THREADS`, `GOTO_NUM_THREADS` or
`OMP_NUM_THREADS` keeps that setting. `fuzrank.cli.run`, the entry of every
launcher, keeps the collector off while the command runs: everything a
command allocates is live until the process exits, no fuzrank object needs
a finaliser, and the cycles left at exit are the few that imports make. It
then freezes the heap (`gc.freeze()`), runs the `atexit` callbacks, flushes
stdout and stderr, and ends the process by `os._exit` with click's exit
code, so the interpreter does not tear down numpy's and click's modules one
object at a time. That is safe because the output is written and flushed,
an `-o` file is closed and renamed, fuzrank starts no thread, and every exit
hook (coverage's among them) has run. Every stdout write flushes, so a
stdout flush that fails here holds only bytes whose failed write was
reported, and `run` drops them with the stream. If the stderr flush fails,
the exit code is not an int, or `python -i` is to show its prompt, the
process exits the ordinary way, by `sys.exit`. `fuzrank.cli.main` is the
entry for embedding fuzrank: it never calls `os._exit` nor replaces
`sys.stdout`, and importing fuzrank, `main` and the module functions change
neither the collector nor `os.environ`.
"""

__version__ = "1.0.0"


def _start_process() -> None:
    """The `fuzrank` process policy: no cyclic collector, one BLAS thread
    unless the caller chose a count. Call it before numpy loads."""
    import gc
    import os

    gc.disable()
    # the variables OpenBLAS reads for its thread count
    if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
