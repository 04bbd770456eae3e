"""Immutable value classes without the dataclasses module.

A subclass of Record lists its fields in __slots__, in order, and may give
defaults for trailing fields in _defaults. It gets: an __init__ that takes
the fields by position or keyword; equality by exact class and equal
fields; a hash of the field values; a field-by-field repr; pickling and
copying; and an AttributeError on assignment or deletion. A subclass may
define _check(), called once the fields are set, to reject bad values or
to set private state derived from the fields.

__init__, _values and __eq__ are compiled once per class, since they run
on every construction and every memo lookup. Slot names that start with
"_", in the class or a base, are private state, not fields: __init__ sets
them to None.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        fields = tuple(name for name in own if not name.startswith("_"))
        cls._fields = cls.__match_args__ = fields
        params = [f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in fields]
        values = "(" + "".join(f"self.{f}, " for f in fields) + ")"
        private = [name for klass in cls.__mro__ for name in klass.__dict__.get("__slots__", ())
                   if name.startswith("_")]
        lines = [f"def __init__(self, {', '.join(params)}):"]
        lines += [f"    _set(self, {f!r}, {f})" for f in fields]
        lines += [f"    _set(self, {name!r}, None)" for name in private]
        if cls._check is not Record._check:
            lines.append("    self._check()")
        if len(lines) == 1:
            lines.append("    pass")
        lines += ["def _values(self):",
                  f"    return {values}",
                  "def __eq__(self, other):",
                  "    if type(other) is not type(self):",
                  "        return NotImplemented",
                  f"    return self is other or {values} == {values.replace('self.', 'other.')}"]
        namespace = {"__name__": cls.__module__, "_set": _set, "_defaults": cls._defaults}
        exec("\n".join(lines), namespace)
        for name in ("__init__", "_values", "__eq__"):
            function = namespace[name]
            function.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, function)

    def _check(self) -> None:
        pass

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
