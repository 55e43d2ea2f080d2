"""Exception types shared across the package."""

from __future__ import annotations


class UnsupportedFragmentError(ValueError):
    """Raised when an operation is applied outside its supported operator fragment.

    Examples: adjoint of a word containing the state symbol, symmetrizing a
    word with two state-derivative letters, a symmetric product in which
    both factors carry a state-derivative letter, or printing a coefficient
    with more digits than the interpreter converts to a string.
    """


class SourceError(ValueError):
    """A user error at a source position; the message starts ``line:column: ``."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(SourceError):
    """Syntax, lexical, arity, or ambiguity error with source position."""


class EvalError(SourceError):
    """Evaluation error for a well-formed expression, carrying the source span."""
