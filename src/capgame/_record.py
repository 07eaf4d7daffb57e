"""Frozen records: the part of `dataclasses` this package uses, without
importing `dataclasses` (and `inspect` behind it) at start-up.

A subclass of `Record` lists its fields as class annotations, with optional
defaults, and gets positional and keyword construction, `__post_init__`,
field-wise `__eq__` and `__hash__`, a repr and frozen attributes.
"""


class _Field:
    """A field as `dataclasses.fields` and `.replace` read it (perfbench replaces schedules)."""

    init = True

    def __init__(self, name: str):
        self.name = name

    @property
    def _field_type(self):
        import dataclasses  # already loaded: only dataclasses reads this

        return dataclasses._FIELD


class Record:
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields += own
        cls._names = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls.__dataclass_fields__ = {n: _Field(n) for n in cls._fields}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._complete(args, kwargs)
        # not via self.__dict__: reading it materializes the dict, and attribute reads slow down
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _complete(self, args: tuple, kwargs: dict) -> list:
        """The field values in field order: the arguments, then the defaults."""
        if not args and kwargs.keys() == self._names:
            return [kwargs[n] for n in self._fields]
        given = dict(zip(self._fields, args))
        if len(args) > len(self._fields) or not kwargs.keys() <= self._names - given.keys():
            raise TypeError(f"{type(self).__name__}() got an unknown, repeated or extra argument")
        values = {**self._defaults, **given, **kwargs}
        if len(values) < len(self._fields):
            raise TypeError(f"{type(self).__name__}() is missing {sorted(self._names - values.keys())}")
        return [values[n] for n in self._fields]

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def to_report(self) -> dict:
        """The fields by name; a record with another JSON form overrides it."""
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
