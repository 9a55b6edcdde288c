"""Frozen value records: the shared base of the engine's immutable data classes.

A record's fields are the parameters of its own __init__, in order. That
__init__ writes each field straight into self.__dict__ and then checks its
invariants; afterwards assigning or deleting an attribute raises
AttributeError. Equality, hashing and repr go by the fields, as those of a
frozen dataclass do. Spelling each __init__ out keeps `dataclasses` and the
`inspect` module it loads out of the import, and a direct __dict__ write is
the cheapest construction Python offers.

_memo is the lazily computed attribute of records and of the contexts
built on them: it keeps its value in __dict__ beside the fields, and as
equality, hashing and repr read only the fields, a kept value never changes
them. A record is frozen, so a kept value never goes stale.
"""

from __future__ import annotations


class Record:
    """Base of a frozen record; a subclass defines __init__ and nothing else is needed."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def _values(self) -> tuple:
        fields = self.__dict__
        return tuple(fields[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        # A dict field (a probe's named tensors) hashes by its sorted items.
        return hash(tuple(tuple(sorted(v.items())) if isinstance(v, dict) else v
                          for v in self._values()))

    def __repr__(self) -> str:
        fields = self.__dict__
        inner = ", ".join(f"{name}={fields[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


class _memo:
    """A lazily computed attribute: fn(obj) on the first read, kept in obj.__dict__,
    which answers every later read (the descriptor defines no __set__).

    functools.cached_property without the RLock it takes on each first
    computation on Python 3.11. A racing thread costs a second computation
    of the same value, never a wrong one.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value
