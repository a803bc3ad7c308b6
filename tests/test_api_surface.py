"""The ``repro.api`` surface is frozen in ``tests/api_surface.txt``.

The snapshot lists every public symbol of the facade — classes with
their public methods (signatures, annotation-free), properties, and
enum members; exceptions with their bases. It also lists the value
types the facade hands out (``SessionHandle.results``, ``last_result``
and ``watch()`` yield them), each with its kind, its constructor fields
in order and its public properties and methods. Any drift (a rename, a
new default, a removed accessor, a dataclass turned tuple) fails this
test until the snapshot is deliberately regenerated:

    PYTHONPATH=src python tests/test_api_surface.py --write
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import sys
from pathlib import Path

SNAPSHOT = Path(__file__).with_name("api_surface.txt")


def _params(func) -> str:
    """A signature rendered as names + defaults (annotations dropped:
    they are strings under ``from __future__ import annotations`` and
    would make the snapshot noisy without adding drift protection)."""
    parts = []
    for parameter in inspect.signature(func).parameters.values():
        if parameter.name in ("self", "cls", "_cls"):
            continue
        name = parameter.name
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            name = "*" + name
        elif parameter.kind is inspect.Parameter.VAR_KEYWORD:
            name = "**" + name
        if parameter.default is not inspect.Parameter.empty:
            name += f"={parameter.default!r}"
        parts.append(name)
    return ", ".join(parts)


def _class_lines(name: str, cls: type) -> list[str]:
    if issubclass(cls, BaseException):
        bases = ", ".join(b.__name__ for b in cls.__bases__)
        return [f"{name}({bases})"]
    if issubclass(cls, enum.Enum):
        lines = [f"{name} [enum]"]
        lines += [f"{name}.{member.name} = {member.value!r}"
                  for member in cls]
        for attr in sorted(vars(cls)):
            if attr.startswith("_") or attr in cls.__members__:
                continue
            if isinstance(vars(cls)[attr], property):
                lines.append(f"{name}.{attr} [property]")
        return lines
    return [f"{name}({_params(cls.__init__)})", *_member_lines(name, cls)]


def _member_lines(name: str, cls: type, fields=()) -> list[str]:
    lines = []
    for attr in sorted(vars(cls)):
        if attr.startswith("_") or attr in fields:
            continue
        value = vars(cls)[attr]
        if isinstance(value, property):
            lines.append(f"{name}.{attr} [property]")
        elif isinstance(value, (staticmethod, classmethod)):
            kind = ("classmethod" if isinstance(value, classmethod)
                    else "staticmethod")
            lines.append(f"{name}.{attr}({_params(value.__func__)}) "
                         f"[{kind}]")
        elif callable(value):
            lines.append(f"{name}.{attr}({_params(value)})")
        else:
            lines.append(f"{name}.{attr}")
    return lines


def _value_lines(name: str, cls: type) -> list[str]:
    """A returned value type: its kind, its fields in constructor order
    (a NamedTuple's from ``__new__``), then its public members."""
    if dataclasses.is_dataclass(cls):
        frozen = cls.__dataclass_params__.frozen
        kind = "frozen dataclass" if frozen else "dataclass"
        fields = tuple(field.name for field in dataclasses.fields(cls))
        constructor = cls.__init__
    else:
        kind, fields, constructor = "NamedTuple", cls._fields, cls.__new__
    return [f"{name} [{kind}]({_params(constructor)})",
            *_member_lines(name, cls, fields)]


def build_surface() -> str:
    import repro.api
    from repro.core.certify import CertificationOutcome
    from repro.core.results import EpochResult, RankedItem

    lines = []
    for name in sorted(repro.api.__all__):
        obj = getattr(repro.api, name)
        if inspect.isclass(obj):
            lines.extend(_class_lines(name, obj))
        else:
            lines.append(name)
    # The value types a session handle returns.
    for cls in (CertificationOutcome, EpochResult, RankedItem):
        lines.extend(_value_lines(cls.__name__, cls))
    return "\n".join(lines) + "\n"


class TestApiSurface:
    def test_surface_matches_snapshot(self):
        assert SNAPSHOT.exists(), (
            "tests/api_surface.txt is missing — regenerate with "
            "`python tests/test_api_surface.py --write`")
        expected = SNAPSHOT.read_text(encoding="utf-8")
        actual = build_surface()
        assert actual == expected, (
            "repro.api public surface drifted from tests/api_surface.txt;"
            " if the change is deliberate, regenerate the snapshot with"
            " `python tests/test_api_surface.py --write`"
        )

    def test_all_matches_module_contents(self):
        """Nothing public escapes the snapshot: every importable
        non-module public name of repro.api is listed in __all__."""
        import repro.api

        public = {name for name in vars(repro.api)
                  if not name.startswith("_")
                  and not inspect.ismodule(vars(repro.api)[name])}
        assert public == set(repro.api.__all__)


if __name__ == "__main__":
    sys.path.insert(
        0, str(Path(__file__).resolve().parent.parent / "src"))
    if "--write" in sys.argv:
        SNAPSHOT.write_text(build_surface(), encoding="utf-8")
        print(f"wrote {SNAPSHOT}")
    else:
        print(build_surface(), end="")
