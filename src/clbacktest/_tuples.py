"""The one way this package builds its immutable value types.

Each value type subclasses the named tuple that :func:`checked_tuple`
returns and sets ``__slots__ = ()`` (no per-value ``__dict__``). Its field
names and defaults are stated once, in that call. A type whose fields have
rules checks them in a ``_check(self)`` method, which raises on a bad
field; :func:`checked_tuple` then gives the type a ``__new__`` that builds
the tuple with the named tuple's own ``__new__`` (field names, defaults and
arity errors) and calls ``_check`` on it, and a ``_make`` (which
``_replace`` calls) that does the same after the named tuple's length
check, so every way of building a value checks it. The installed
``__new__`` wraps the named tuple's, so a signature read from the type
still shows the fields and their defaults. A type without ``_check`` stays
a plain named tuple. A value pickles as ``tuple.__new__(type, fields)``, so
unpickling, as in a sweep worker, does not check it again.
"""

from __future__ import annotations

from collections import namedtuple
from functools import wraps


def checked_tuple(name: str, fields: str, defaults: tuple = ()) -> type:
    """Named-tuple base for the value type ``name`` with the space-separated
    ``fields``, whose last fields default to ``defaults``."""
    base = namedtuple(name, fields, defaults=defaults)
    build = base.__new__
    unchecked_make = base._make.__func__

    @wraps(build)
    def __new__(cls, *args, **kwargs):
        value = build(cls, *args, **kwargs)
        value._check()
        return value

    def _make(cls, iterable):
        value = unchecked_make(cls, iterable)
        value._check()
        return value

    def __init_subclass__(cls):
        if "_check" in vars(cls):
            cls.__new__ = staticmethod(__new__)
            cls._make = classmethod(_make)

    def __reduce__(self):
        return tuple.__new__, (type(self), tuple(self))

    base.__init_subclass__ = classmethod(__init_subclass__)
    base.__reduce__ = __reduce__
    return base
