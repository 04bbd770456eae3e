"""Immutable value classes without the dataclasses module.

A subclass of Record lists its fields in __slots__, in order, and may give
defaults for trailing fields in _defaults. It gets: an __init__ that takes
the fields by position or keyword; equality by exact class and equal
fields; a hash of the field values; a field-by-field repr; pickling and
copying; and an AttributeError on assignment or deletion.

A subclass may list _guards, pairs of a Python condition over its field
names and a message. __init__ tests the conditions in order before it sets
a field, and raises _error (PreconditionError unless the class names
another exception) with the message of the first one that is false. A
condition sees the builtins and the names its module has bound when the
class is defined.

__init__, _values and __eq__ are compiled once per class, since they run
on every construction and every memo lookup. Slot names that start with
"_", in the class or a base, are private state, not fields: __init__ sets
them to None.
"""

from __future__ import annotations

import sys

from .errors import PreconditionError

_set = object.__setattr__


def own_fields(cls: type) -> tuple[str, ...]:
    """The fields cls declares: its own slot names that do not start with "_"."""
    return tuple(name for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_"))


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _guards: tuple[tuple[str, str], ...] = ()
    _error: type[Exception] = PreconditionError

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = cls.__match_args__ = own_fields(cls)
        params = [f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in fields]
        values = "(" + "".join(f"self.{f}, " for f in fields) + ")"
        private = [name for klass in cls.__mro__ for name in klass.__dict__.get("__slots__", ())
                   if name.startswith("_")]
        lines = [f"def __init__(self, {', '.join(params)}):"]
        for condition, message in cls._guards:
            lines += [f"    if not ({condition}):", f"        raise _error({message!r})"]
        lines += [f"    _set(self, {f!r}, {f})" for f in fields]
        lines += [f"    _set(self, {name!r}, None)" for name in private]
        if len(lines) == 1:
            lines.append("    pass")
        lines += ["def _values(self):",
                  f"    return {values}",
                  "def __eq__(self, other):",
                  "    if type(other) is not type(self):",
                  "        return NotImplemented",
                  f"    return self is other or {values} == {values.replace('self.', 'other.')}"]
        namespace = dict(vars(sys.modules[cls.__module__]), _set=_set,
                         _defaults=cls._defaults, _error=cls._error)
        exec("\n".join(lines), namespace)
        for name in ("__init__", "_values", "__eq__"):
            function = namespace[name]
            function.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, function)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
