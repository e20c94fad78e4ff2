"""Immutable records: the one base class of every record and AST node.

A subclass declares its fields as annotations, in order, after those of its
base, with any defaults as class attributes.  ``__init_subclass__`` reads
them once; no method is generated, so defining a record class costs a small
fraction of what a frozen dataclass did.  An instance behaves as that frozen
dataclass did:

- it is built positionally or by keyword, and a class that defines
  ``validate()`` is checked as it is built, so an instance that exists is
  valid;
- ``==`` needs the same class and equal compared fields, the hash is the
  hash of the tuple of compared fields, and ``repr`` reads
  ``Name(field=value, ...)``;
- assigning or deleting a field raises ``AttributeError``;
- ``_replace(**changes)`` builds a changed copy, checked again, and
  ``_asdict()`` turns records, recursively, into dicts.

``_uncompared`` names the fields that equality and the hash leave out,
``_hidden`` those that ``repr`` leaves out as well.

The generic ``__init__`` fills the instance ``__dict__``.  A class built once
per AST node, CFG block or edge, or mutation site declares ``__slots__``
instead and writes its own ``__init__``, which assigns its fields through
``object.__setattr__``; that costs less than the dataclass did.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

_set = object.__setattr__


def _getter(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    """The function that gives a record's ``names`` fields as a tuple."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    __slots__ = ()

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}
    _uncompared: frozenset[str] = frozenset()
    _hidden: frozenset[str] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = fields = cls._fields + own
        cls._defaults = {
            **cls._defaults,
            **{name: cls.__dict__[name] for name in own
               if name in cls.__dict__ and name not in slots},
        }
        cls._shown = tuple(name for name in fields if name not in cls._hidden)
        cls._key = staticmethod(_getter(
            tuple(name for name in fields if name not in cls._uncompared)
        ))

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls = type(self)
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            values = cls._defaults | dict(zip(fields, args))
            values.update(kwargs)
            if (len(args) > len(fields) or len(values) != len(fields) or kwargs and (
                    kwargs.keys() - fields or not kwargs.keys().isdisjoint(fields[:len(args)]))):
                raise TypeError(
                    f"{cls.__name__}() takes the fields ({', '.join(fields)}), got "
                    f"{len(args)} positional arguments and the keywords ({', '.join(kwargs)})"
                )
            vars(self).update(values)
        else:
            vars(self).update(zip(fields, args))
        self.validate()

    def validate(self) -> None:
        """Raise ``ValidationError`` if the record breaks an invariant of its
        class; a class with invariants overrides this."""

    def __eq__(self, other: object) -> Any:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # Pickling goes through these, since assignment is refused.
    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self._fields]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self._fields, state):
            _set(self, name, value)

    def _replace(self, **changes: Any) -> Any:
        """A copy with ``changes`` applied, built (and checked) anew."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)

    def _asdict(self) -> dict[str, Any]:
        """The fields as a dict, with records inside turned into dicts and
        lists, tuples and dicts rebuilt around them, as ``dataclasses.asdict``
        did."""
        return {name: _plain(getattr(self, name)) for name in self._fields}


def _plain(value: Any) -> Any:
    if isinstance(value, Record):
        return value._asdict()
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    if isinstance(value, dict):
        return type(value)((_plain(k), _plain(v)) for k, v in value.items())
    return value
