"""The `fuzrank` process entry: the installed script and `python -m fuzrank`.

The cyclic collector goes off before `fuzrank.cli` loads click and numpy;
`cli.run` keeps it off and freezes the heap at exit (see `fuzrank.cli`).
"""

import gc

gc.disable()

from .cli import run  # noqa: E402

if __name__ == "__main__":
    run()
