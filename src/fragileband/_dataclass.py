"""The package's dataclass decorator: shared methods instead of generated ones.

``dataclasses.dataclass`` writes the source of a class's ``__init__``,
``__repr__``, ``__eq__``, ``__hash__``, ``__setattr__`` and ``__delattr__``
and ``exec``s it, one method at a time; for the package's classes that was
most of the time of ``import fragileband``.  :func:`dataclass` lets the
standard decorator collect the fields and generate none of these methods,
then attaches one function for each, written once here, which reads the
field plan of the instance's class.

The classes stay dataclasses: ``dataclasses.fields``, ``replace``,
``asdict`` and ``is_dataclass`` work on them, and ``__dataclass_params__``
records the methods they have.  The methods keep the generated ones'
semantics: the same binding rules, raising TypeError; ``__post_init__``
called last; equality of the field tuples against the same class only; a
field hash for frozen classes with ``eq``, and ``__hash__ = None`` for
other classes with ``eq``; FrozenInstanceError on assignment or deletion.
``inspect.signature(cls)`` lists the fields, and a class without a
docstring gets the standard one, ``Name(field: type, ...)``.  Fields are
plain: a type and an optional default, with no ``field()`` options, no
``InitVar`` and none inherited from a dataclass base; the decorator
refuses a class that has any of these.
"""

from __future__ import annotations

import dataclasses
import reprlib
from dataclasses import MISSING, FrozenInstanceError

_METHODS = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")
_object_setattr = object.__setattr__


class _Plan:
    """What the shared methods read of one class: its fields, in order."""

    __slots__ = ("cls", "names", "positional", "defaults", "arity", "post_init", "set_field")

    def __init__(self, cls: type, frozen: bool) -> None:
        fields = dataclasses.fields(cls)
        self.cls = cls
        self.names = tuple(f.name for f in fields)
        self.positional = tuple(f.name for f in fields if not f.kw_only)
        self.defaults = {f.name: f.default for f in fields if f.default is not MISSING}
        # The common call passes every field by position; -1 when some are keyword-only.
        self.arity = len(self.names) if self.positional == self.names else -1
        self.post_init = hasattr(cls, "__post_init__")
        # As generated code does: a frozen class's __init__ goes round its
        # __setattr__, a mutable one's assigns (the builtin takes about half
        # the time of object.__setattr__'s slot call).
        self.set_field = _object_setattr if frozen else setattr
        initvars = [
            name
            for name, f in cls.__dataclass_fields__.items()
            if f._field_type is dataclasses._FIELD_INITVAR
        ]
        if initvars:
            raise TypeError(f"{cls.__qualname__}.{initvars[0]}: InitVar fields are not supported")
        for f in fields:
            options = (f.init, f.repr, f.compare, f.hash, f.default_factory)
            if options != (True, True, True, None, MISSING):
                raise TypeError(f"{cls.__qualname__}.{f.name}: field() options are not supported")
        required = [name for name in self.positional if name not in self.defaults]
        if required and self.positional.index(required[-1]) >= len(required):
            raise TypeError(f"non-default argument {required[-1]!r} follows default argument")

    def bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of a call, in field order, or the TypeError of a generated __init__."""
        where = f"{self.cls.__qualname__}.__init__()"
        if len(args) > len(self.positional):
            raise TypeError(
                f"{where} takes {len(self.positional) + 1} positional arguments "
                f"but {len(args) + 1} were given"
            )
        values = dict(zip(self.positional, args))
        for name in kwargs:
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            if name not in self.names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        values.update(kwargs)
        missing = [name for name in self.names if name not in values and name not in self.defaults]
        if missing:
            raise TypeError(f"{where} missing required arguments: {', '.join(map(repr, missing))}")
        return [values[name] if name in values else self.defaults[name] for name in self.names]

    def key(self, obj) -> tuple:
        return tuple([getattr(obj, name) for name in self.names])


def _init(self, /, *args, **kwargs):
    plan = self._dataclass_plan
    if kwargs and not args and tuple(kwargs) == plan.names:  # every field by keyword, in order
        args = kwargs.values()
    elif kwargs or len(args) != plan.arity:
        args = plan.bind(args, kwargs)
    # One attribute at a time, as generated code does: an instance whose
    # __dict__ was touched here would lose CPython's faster attribute reads.
    set_field = plan.set_field
    for name, value in zip(plan.names, args):
        set_field(self, name, value)
    if plan.post_init:
        self.__post_init__()


@reprlib.recursive_repr()
def _repr(self):
    fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._dataclass_plan.names])
    return f"{self.__class__.__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        plan = self._dataclass_plan
        return plan.key(self) == plan.key(other)
    return NotImplemented


def _hash(self):
    return hash(self._dataclass_plan.key(self))


def _setattr(self, name, value):
    plan = self._dataclass_plan
    if type(self) is plan.cls or name in plan.names:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    super(plan.cls, self).__setattr__(name, value)


def _delattr(self, name):
    plan = self._dataclass_plan
    if type(self) is plan.cls or name in plan.names:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
    super(plan.cls, self).__delattr__(name)


class _Signature:
    """``cls.__signature__``: the fields as a generated ``__init__`` lists them, built on use."""

    def __get__(self, instance, owner):
        import inspect  # loaded by dataclasses already

        empty, Parameter = inspect.Parameter.empty, inspect.Parameter
        return inspect.Signature(
            [
                Parameter(
                    f.name,
                    Parameter.KEYWORD_ONLY if f.kw_only else Parameter.POSITIONAL_OR_KEYWORD,
                    default=empty if f.default is MISSING else f.default,
                    annotation=f.type,
                )
                for f in dataclasses.fields(owner)
            ],
            return_annotation=None,
        )


_SIGNATURE = _Signature()


def dataclass(*, frozen: bool = False, eq: bool = True, kw_only: bool = False):
    """``dataclasses.dataclass(frozen=..., eq=..., kw_only=...)``, with shared methods."""

    def wrap(cls: type) -> type:
        clash = [name for name in _METHODS if name in cls.__dict__]
        if clash:
            raise TypeError(f"{cls.__qualname__} defines {clash[0]}, which the decorator supplies")
        bases = [base for base in cls.__mro__[1:] if dataclasses.is_dataclass(base)]
        if bases:
            raise TypeError(f"{cls.__qualname__} has the dataclass base {bases[0].__qualname__}")
        # Before the standard decorator, which reads it to write a missing docstring.
        cls.__signature__ = _SIGNATURE
        dataclasses.dataclass(cls, init=False, repr=False, eq=False, kw_only=kw_only)
        params = cls.__dataclass_params__
        params.init = params.repr = True
        params.eq, params.frozen = eq, frozen
        cls._dataclass_plan = _Plan(cls, frozen)
        cls.__init__, cls.__repr__ = _init, _repr
        if eq:
            cls.__eq__ = _eq
            cls.__hash__ = _hash if frozen else None
        if frozen:
            cls.__setattr__, cls.__delattr__ = _setattr, _delattr
        return cls

    return wrap
