"""The base of homsim's immutable value classes.

Each value class writes an explicit ``__init__`` that checks its arguments
and stores them in the instance ``__dict__``; no code is generated when the
class is created, so importing a module costs only its own definitions.
"""


class Frozen:
    """Immutable instances: after ``__init__`` has filled ``__dict__``,
    assigning or deleting an attribute raises ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
