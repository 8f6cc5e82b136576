"""Plain value classes with dataclass-style equality and repr.

A subclass names its fields in ``_fields``, in constructor order, and sets
them in its own ``__init__``.  ``==`` compares the field tuples of two
instances of the same class and ``repr`` lists the fields by name, as the
``dataclasses`` module would generate them; :class:`FrozenRecord` adds a hash
of the field tuple and refuses attribute assignment.  Unlike ``dataclasses``,
which loads ``inspect``, this module imports nothing.
"""

from __future__ import annotations


class Record:
    """Mutable record: ``==`` and ``repr`` over ``_fields``; unhashable."""

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """Immutable record, hashable on its field tuple.  ``__init__`` sets the
    fields with :meth:`_set`; assigning or deleting an attribute later raises
    :class:`AttributeError`.  Lazily filled ``functools.cached_property``
    values are still stored, since they bypass ``__setattr__``."""

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
