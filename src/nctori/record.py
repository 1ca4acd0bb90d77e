"""Records: ``__slots__`` classes whose fields are their ``__slots__``, in order, each with
its own ``__init__`` (checks included, no loop over the fields)."""

from operator import attrgetter

set_field = object.__setattr__  # how a Frozen record's __init__ sets each field


class Record:
    """``repr`` as ``Name(field=value, ...)``; equality, hash and assignment as ``object`` has them."""

    __slots__ = ()

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"


class Frozen(Record):
    """Equal when of the same class with equal field tuples, hashed as the field tuple, and immutable."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get, single = attrgetter(*cls.__slots__), len(cls.__slots__) == 1

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (get(self),) == (get(other),) if single else get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash((get(self),) if single else get(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
