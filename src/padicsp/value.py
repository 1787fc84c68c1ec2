"""The base of the immutable value types, with its three helpers.

Every value class of the library (the scalars and contexts of padic, the
roots and Weyl elements, the matrices, the cover elements, the Schwartz
terms, the campaign configuration) derives from _Value: one equality and
one hash read off its public slots, no attribute writes after
construction, and copy, pickle and repr that follow the slots.  A value
fills its slots through _set, object.__setattr__, at construction.  The
base is a module of its own, so that every layer can derive from it
without importing the scalar arithmetic.
"""
from operator import attrgetter

_set = object.__setattr__


def _immutable(self, *args):
    """__setattr__ and __delattr__ of the immutable value types."""
    raise AttributeError(f"{type(self).__name__} is immutable")


def _restore(self, state):
    """__setstate__ of the immutable value types: copy and pickle refill the
    slots from the (None, slots) state that object.__getstate__ gives."""
    for name, value in state[1].items():
        _set(self, name, value)


def _slots_repr(self) -> str:
    """The repr of a value type: its public slots as keyword arguments, in order."""
    fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__ if k[0] != "_")
    return f"{type(self).__name__}({fields})"


class _Value:
    """Base of the immutable value types.  A value's fields are its public
    slots, those not named with a leading "_", in slot order: two values
    are equal when they are of one class with equal fields, and a value
    hashes as the tuple of its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = [k for k in cls.__slots__ if k[0] != "_"]
        get = attrgetter(*names)  # one name gives the bare value, not a 1-tuple
        cls._fields = staticmethod(get if len(names) > 1 else lambda v: (get(v),))

    __setattr__ = __delattr__ = _immutable
    __setstate__ = _restore
    __repr__ = _slots_repr

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))
