"""Process entry for `python -m qdepth` and the `qdepth` script.

A command is a short-lived process with no cyclic garbage to speak of: run
in process with the collector off, each leaves the same 64-122 unreachable
objects (argparse's, and the json encoder's for --format json) on example1
as on a uf50-shaped draw.  So the collector stays off, sparing its passes
while modules compile, and all objects are frozen before a normal exit,
which still runs atexit and flushes streams but skips the final full
collection.  `cli.main` leaves the collector alone.
"""

import gc


def run() -> None:
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
