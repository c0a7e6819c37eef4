"""Process entry of `python -m envma` and of the `envma` console script."""

import gc
import sys

from .cli import main


def entry() -> int:
    """Run the command line of this process.  The objects made by importing
    numpy and `envma.cli` (the envelope kernel and the file formats, which
    every command uses) live until exit, so they are frozen out of the
    garbage collector first: CPython's collections, the ones at shutdown
    included, then skip them.  The solver is imported later, by solve and
    convergence alone, and is not frozen: its ~570 tracked objects cost the
    first full collection about 0.1 ms.  `cli.main` itself does not freeze,
    as in-process callers keep collecting their own objects."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
