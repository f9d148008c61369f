"""The base of homsim's immutable value classes and scenario sections.

A class lists its fields as annotations, each with an optional class-level
default; annotations whose names start with ``_`` (such as ``_fields``
itself) are not fields.  :meth:`Frozen.__init_subclass__` reads them once,
when the class is created, into ``_fields``, and one :meth:`Frozen.__init__`
builds every instance: it binds positional arguments in field order and
keyword arguments by name, fills in the defaults, stores the fields in the
instance ``__dict__`` and then runs the class's ``__post_init__``, which
checks and converts them.  No code is generated per class, and this module
imports nothing.
"""

REQUIRED = object()  # the default of a field without one


class Frozen:
    """Immutable instances: after ``__init__`` has filled ``__dict__``,
    assigning or deleting an attribute raises ``AttributeError``.

    ``_fields`` holds ``(name, annotation, default)`` for each field, in
    declaration order; ``default`` is ``REQUIRED`` for a field without one.
    A missing, unknown or doubled argument raises ``TypeError`` naming it.
    Instances compare by identity.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls) -> None:
        # ``cls.__annotations__`` holds the class's own annotations only (not a
        # base's) from Python 3.10 on; from 3.14 on the class dict keeps an
        # annotate function instead of an ``__annotations__`` entry, and this
        # attribute evaluates it.
        fields = []
        for name, annotation in cls.__annotations__.items():
            if name.startswith("_"):
                continue
            fields.append((name, annotation, cls.__dict__.get(name, REQUIRED)))
            if name in cls.__dict__:
                delattr(cls, name)  # the default lives in _fields
        cls._fields = tuple(fields)

    def __init__(self, *args, **kwargs) -> None:
        fields, values = self._fields, self.__dict__
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} arguments, got {len(args)}"
            )
        for (name, _, _), value in zip(fields, args):
            if name in kwargs:
                raise TypeError(f"{type(self).__name__}() got multiple values for {name!r}")
            values[name] = value
        for name, _, default in fields[len(args) :]:
            value = kwargs.pop(name, default)
            if value is REQUIRED:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            values[name] = value
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got an unexpected keyword argument "
                f"{next(iter(kwargs))!r}"
            )
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and convert the stored fields; a class overrides it."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
