"""The package's dataclass decorator keeps the contract of generated dataclass methods.

Every dataclass of the library modules is checked, found by reflection, so a
new class is checked too, and one decorated with the standard
``@dataclass`` fails on its ``exec``-generated methods.  The instances hold
one plain value per field, with ``__post_init__`` replaced by a recorder,
so no class needs a valid sample: the methods under test read only the
fields.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from fragileband import game, mass, reference, scenario, stopping
from fragileband._dataclass import dataclass

CLASSES = sorted(
    (
        value
        for module in (game, mass, reference, scenario, stopping)
        for value in vars(module).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == module.__name__
    ),
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
)
METHODS = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


@pytest.fixture
def post_init_calls() -> list[dict]:
    """The instance dict at each ``__post_init__`` call of the test's class."""
    return []


@pytest.fixture(params=CLASSES, ids=lambda cls: cls.__qualname__)
def cls(request, monkeypatch, post_init_calls):
    if hasattr(request.param, "__post_init__"):
        record = lambda self: post_init_calls.append(dict(vars(self)))  # noqa: E731
        monkeypatch.setattr(request.param, "__post_init__", record)
    return request.param


def _values(cls, tag: str = "") -> dict:
    return {f.name: f"{f.name}{tag}" for f in dataclasses.fields(cls)}


def _make(cls, values: dict):
    positional = [values[f.name] for f in dataclasses.fields(cls) if not f.kw_only]
    keywords = {f.name: values[f.name] for f in dataclasses.fields(cls) if f.kw_only}
    return cls(*positional, **keywords)


def test_the_library_has_dataclasses():
    assert len(CLASSES) >= 40


def test_fields_replace_and_post_init(cls, post_init_calls):
    values = _values(cls)
    obj = _make(cls, values)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(obj)
    assert [f.name for f in dataclasses.fields(obj)] == list(values)
    assert vars(obj) == values
    if hasattr(cls, "__post_init__"):
        assert post_init_calls == [values]  # once, after every field is set
    assert cls(**values).__dict__ == values
    if values:
        first = next(iter(values))
        changed = dataclasses.replace(obj, **{first: "other"})
        assert vars(changed) == {**values, first: "other"}
        assert vars(obj) == values


def test_defaults_fill_missing_arguments(cls):
    fields = dataclasses.fields(cls)
    required = {f.name: f"{f.name}" for f in fields if f.default is dataclasses.MISSING}
    obj = cls(**required)
    for f in fields:
        assert getattr(obj, f.name) == required.get(f.name, f.default)


def test_repr_lists_the_fields(cls):
    obj = _make(cls, _values(cls))
    text = ", ".join(f"{name}={value!r}" for name, value in _values(cls).items())
    assert repr(obj) == f"{cls.__qualname__}({text})"


def test_equality_and_hash(cls):
    params = cls.__dataclass_params__
    obj, twin = _make(cls, _values(cls)), _make(cls, _values(cls))
    assert obj == obj
    assert obj.__eq__(object()) is NotImplemented
    if not params.eq:
        assert obj != twin  # identity
        assert cls.__hash__ is object.__hash__
        return
    assert obj == twin
    if _values(cls):
        assert obj != _make(cls, _values(cls, "-other"))
    if params.frozen:
        assert hash(obj) == hash(twin) == hash(tuple(_values(cls).values()))
    else:
        assert cls.__hash__ is None


def test_frozen_instances_refuse_assignment_and_deletion(cls):
    obj = _make(cls, _values(cls))
    if not cls.__dataclass_params__.frozen:
        obj.extra = 1
        del obj.extra
        return
    for name in [*_values(cls), "extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(obj, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(obj, name)
    assert vars(obj) == _values(cls)


def test_binding_errors(cls):
    fields = dataclasses.fields(cls)
    values = _values(cls)
    positional = [f.name for f in fields if not f.kw_only]
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**values, extra=1)
    with pytest.raises(TypeError, match="positional arguments? but"):
        cls(*[values[name] for name in positional], "extra")
    if any(f.default is dataclasses.MISSING for f in fields):
        with pytest.raises(TypeError, match="missing required arguments"):
            cls()
    if positional:
        with pytest.raises(TypeError, match=f"multiple values for argument '{positional[0]}'"):
            cls(values[positional[0]], **values)
    keyword_only = [f.name for f in fields if f.kw_only]
    if keyword_only:
        with pytest.raises(TypeError, match="positional arguments? but"):
            cls(*[values[name] for name in positional], values[keyword_only[0]])


def test_signature_lists_the_fields(cls):
    parameters = list(inspect.signature(cls).parameters.values())
    expected = [
        (
            f.name,
            inspect.Parameter.KEYWORD_ONLY if f.kw_only else inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default,
            f.type,
        )
        for f in dataclasses.fields(cls)
    ]
    assert [(p.name, p.kind, p.default, p.annotation) for p in parameters] == expected


def test_pickle_round_trip(cls):
    obj = _make(cls, _values(cls))
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is cls and vars(copy) == vars(obj)
    if cls.__dataclass_params__.eq:
        assert copy == obj


def test_no_method_is_generated_source(cls):
    # The standard decorator exec()s its methods from "<string>" source.
    methods = [getattr(cls, name) for name in METHODS]
    methods += [value for value in vars(cls).values() if inspect.isfunction(value)]
    for method in methods:
        code = getattr(inspect.unwrap(method), "__code__", None) if method else None
        assert code is None or code.co_filename != "<string>", method


def test_a_class_without_docstring_gets_the_standard_one():
    @dataclass(frozen=True)
    class Point:
        x: float
        y: int = 2

    assert Point.__doc__ == "Point(x: 'float', y: 'int' = 2)"
    assert str(inspect.signature(Point)) == "(x: 'float', y: 'int' = 2) -> None"


class _DefaultFirst:
    x: int = 1
    y: int


class _FieldOptions:
    x: list = dataclasses.field(default_factory=list)


class _OwnRepr:
    x: int

    def __repr__(self):
        return "mine"


class _InitVar:
    x: dataclasses.InitVar[int]


class _Subclass(mass.MassState):
    y: int


@pytest.mark.parametrize(
    "body, message",
    [
        (_DefaultFirst, "non-default argument 'y' follows default argument"),
        (_FieldOptions, r"_FieldOptions.x: field\(\) options are not supported"),
        (_OwnRepr, "_OwnRepr defines __repr__, which the decorator supplies"),
        (_InitVar, "_InitVar.x: InitVar fields are not supported"),
        (_Subclass, "_Subclass has the dataclass base MassState"),
    ],
)
def test_the_decorator_refuses_what_it_does_not_supply(body, message):
    with pytest.raises(TypeError, match=message):
        dataclass()(body)


def test_a_mutable_class_with_eq_is_unhashable():
    @dataclass()
    class Box:
        x: int

    box = Box(1)
    box.x = 2
    assert Box.__hash__ is None and box == Box(2)
