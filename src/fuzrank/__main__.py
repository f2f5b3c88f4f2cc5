"""The `fuzrank` process entry: the installed script and `python -m fuzrank`.

It applies the process policy stated in `fuzrank`: `_start_process` runs
before `fuzrank.cli` loads click and numpy, and `cli.run` runs the command.
"""

from . import _start_process

_start_process()

from .cli import run  # noqa: E402

if __name__ == "__main__":
    run()
