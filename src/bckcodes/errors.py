"""Exception types shared across the package."""


class UsageError(ValueError):
    """A caller violated an operation's precondition or passed bad arguments."""


class FormatError(UsageError):
    """A text input (code file or algebra file) is malformed.

    `line` is 1-based when the problem is attributable to a specific line.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
