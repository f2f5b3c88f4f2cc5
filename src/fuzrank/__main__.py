"""The `fuzrank` process entry: the installed script and `python -m fuzrank`.

`_start_process` (see `fuzrank`) runs before `fuzrank.cli` loads click and
numpy; `cli.run` keeps the collector off, freezes the heap at exit, and ends
the process by `os._exit` after the `atexit` callbacks and a flush.
"""

from . import _start_process

_start_process()

from .cli import run  # noqa: E402

if __name__ == "__main__":
    run()
