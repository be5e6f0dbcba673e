"""Exception types shared across the toolkit."""


class ValidationError(ValueError):
    """Bad input data or configuration: malformed graphs, marks, shapes, configs."""


class ParseError(ValidationError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericFault(ArithmeticError):
    """NaN or Inf in a kernel output or a loss."""
