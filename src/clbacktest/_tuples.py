"""The one way this package builds its immutable value types.

Each value type subclasses the named tuple that :func:`checked_tuple`
returns, sets ``__slots__ = ()`` (no per-value ``__dict__``) and, when its
fields have rules, checks them in its own ``__new__`` with named parameters
before ``tuple.__new__(cls, fields)``. A named tuple's ``_make`` and
``_replace`` (which calls ``_make``) would skip that ``__new__``; the base
routes ``_make`` through it, so every way of building a value checks it.
A value pickles as ``tuple.__new__(type, fields)``, so unpickling, as in a
sweep worker, does not check it again.
"""

from __future__ import annotations

from collections import namedtuple


def checked_tuple(name: str, fields: str, defaults: tuple = ()) -> type:
    """Named-tuple base for the value type ``name`` with the space-separated
    ``fields``, whose last fields default to ``defaults``."""
    base = namedtuple(name, fields, defaults=defaults)
    unchecked_make = base._make

    def _make(cls, iterable):
        return cls(*unchecked_make(iterable))

    def __reduce__(self):
        return tuple.__new__, (type(self), tuple(self))

    base._make = classmethod(_make)
    base.__reduce__ = __reduce__
    return base
