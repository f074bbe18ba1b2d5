"""The exceptions that several modules raise."""


class InternalCheckFailure(Exception):
    """A self-check failed: a bug, never bad input.  Raised explicitly
    rather than by ``assert``, so the checks also run under ``python -O``;
    the command line exits 2 on it, reporting the optional second
    argument as the partial result."""


class SizeCapError(ValueError):
    """An input beyond a documented size cap, rejected before the work
    that would exceed it; an input error like any other."""
