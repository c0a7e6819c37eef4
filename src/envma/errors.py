"""The exception types `envma.cli.main` maps to their own exit code."""


class NoConvergence(RuntimeError):
    """An iteration budget was exhausted; signals a bug or pathological input."""


class LinearSolveFailure(RuntimeError):
    """The frozen-policy linear system could not be solved."""


class ParseError(ValueError):
    """Malformed input file; message carries a line/row diagnostic."""
