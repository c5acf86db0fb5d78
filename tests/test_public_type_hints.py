"""Every public callable of ``repro.stream`` and ``repro.query`` has type
hints that resolve.

The modules use ``from __future__ import annotations``, so an annotation
naming a type the module never imports only fails when something evaluates
it — ``typing.get_type_hints``, a dataclass introspector, a documentation
tool.  This test evaluates them all.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import repro.query
import repro.stream


def public_callables():
    """(qualified name, object) for every public function, class and
    public method (``__init__`` included) defined in the two packages."""
    for package in (repro.stream, repro.query):
        prefix = package.__name__ + "."
        for info in pkgutil.iter_modules(package.__path__, prefix):
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != (
                    module.__name__
                ):
                    continue
                qualified = f"{module.__name__}.{name}"
                if inspect.isfunction(obj):
                    yield qualified, obj
                if not inspect.isclass(obj):
                    continue
                yield qualified, obj
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{qualified}.{attr}", member


def test_every_public_callable_has_resolvable_type_hints():
    checked = 0
    failures = []
    for name, obj in public_callables():
        checked += 1
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # NameError, TypeError: both are defects
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    assert checked > 100  # the walk really covers both packages
    assert failures == []
