"""Exceptions shared across the package."""


class InternalError(Exception):
    """A result failed its own exact re-check: a bug, never bad input."""
