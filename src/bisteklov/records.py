"""Immutable records for the package's value classes, without ``dataclasses``.

``Record`` gives a class, most often one with ``__slots__``, what a frozen
dataclass would: fields set once, in ``__init__``, through ``_set``; equality
and hash over the fields named in ``_fields``, between records of one class; a
repr that lists them; and copies and pickles that restore the fields through
``_set`` too.  Importing ``dataclasses`` (and with it ``inspect``) and running its
decorators costs a fresh process about 10 ms, which the exact commands do not pay.
"""

from __future__ import annotations


class Record:
    """Base of an immutable record compared on ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        """Set each named attribute, bypassing the refusal of ``__setattr__``."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {type(value).__name__} to field {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __setstate__(self, state):
        # copy and pickle hand over the __dict__ or (__dict__, slots) of object.__getstate__;
        # without this they would restore the slots through __setattr__, which refuses
        attributes, slots = state if isinstance(state, tuple) else (state, None)
        self._set(**(attributes or {}), **(slots or {}))

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
