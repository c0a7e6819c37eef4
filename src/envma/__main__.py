"""Process entry of `python -m envma` and of the `envma` console script."""

import gc
import sys

from .cli import main


def entry() -> int:
    """Run the command line of this process.  The objects made by importing
    numpy and envma live until exit, so they are frozen out of the garbage
    collector first: CPython's collections, the ones at shutdown included,
    then skip them.  `cli.main` itself does not freeze, as in-process callers
    keep collecting their own objects."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
