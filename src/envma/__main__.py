"""Process entry of `python -m envma` and of the `envma` console script."""

import gc
import sys


def entry() -> int:
    """Run the command line of this process.  The objects made by importing
    numpy and `envma.cli` (the envelope kernel and the file formats, which
    every command uses) live until exit, so the collector is off while they
    are made, sparing the imports some 30 collections that free next to
    nothing, and they are then frozen out of it: CPython's collections, the
    ones at shutdown included, skip them.  No `gc.collect()` runs before the
    freeze: it would take 7-8 ms to free a few hundred import-time objects.
    The import lives here, not at module level, so importing this module
    leaves the collector as it was.  The solver is imported later, by solve
    and convergence alone, and is not frozen.  `cli.main` itself does not
    freeze, as in-process callers keep collecting their own objects."""
    gc.disable()
    try:
        from .cli import main
        gc.freeze()
    finally:
        gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
