"""Plain value types with the methods ``@dataclass`` would give them.

A subclass names its fields in ``__slots__`` (or in ``_fields`` when it
also has slots that are not fields) and writes its own ``__init__``.  It
gets ``==`` over the fields for two instances of the same class
(``NotImplemented`` otherwise), the ``repr`` ``Name(field=value, ...)``,
and pickling and copying through its constructor.  :class:`Value` is
mutable and unhashable; :class:`FrozenValue` is immutable, its
``__init__`` sets the fields with ``object.__setattr__``, and it hashes
the tuple of its fields.

The package uses these instead of ``dataclasses``: importing that module
loads ``inspect`` with it, and each decoration compiles generated methods
with ``exec``, which together cost every short-lived process more than
the methods below.  No code is generated here; fields are read by one
``operator.attrgetter`` per class, so a class needs two fields or more
for it to return a tuple.
"""

from operator import attrgetter


class Value:
    """A mutable value type; see the module docstring."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = vars(cls).get("_fields", cls.__slots__)
        if fields:  # FrozenValue itself has none
            cls._fields = fields
            # a class attribute, not a method: called as ``self._astuple(self)``
            cls._astuple = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple(self)


class FrozenValue(Value):
    """An immutable, hashable :class:`Value`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
