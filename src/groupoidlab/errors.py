"""The exceptions that several modules raise."""


class InternalCheckFailure(Exception):
    """A self-check failed: a bug, never bad input.  Raised explicitly
    rather than by ``assert``, so the checks also run under ``python -O``;
    the command line exits 2 on it, reporting the optional second
    argument as the partial result."""


class InputError(ValueError):
    """An input error.  Given a ``path``, a JSON pointer into the
    document, the message ends with where the fault is; ``code``, if
    given, names the kind of fault for callers that branch on it."""

    def __init__(self, message: str, path: str | None = None, code: str | None = None):
        super().__init__(message if path is None else f"{message} (at {path})")
        self.path, self.code = path, code


class SizeCapError(InputError):
    """An input beyond a documented size cap, rejected before the work
    that would exceed it; an input error like any other."""
