"""Exception types shared across the package."""


class TeamcheckError(Exception):
    """Base class for errors raised by this package."""


class ParseError(TeamcheckError):
    """Syntax or arity error in a formula, structure, team, graph, or propositional formula text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class EvaluationError(TeamcheckError):
    """Semantic misuse at evaluation time (unknown symbol, unbound free variable, wrong fragment)."""
