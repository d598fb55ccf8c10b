"""The traced benchmark wraps named coldroute functions; each name must resolve.

``perfbench/launch.py`` replaces every ``(module, "func" | "Class.method")``
pair in its ``TARGETS`` table with a span-recording wrapper and fails when
one is missing, so renaming or deleting a traced function must fail here
first.  The file is only read, never changed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"


def _targets() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    return [
        (span, module, attr)
        for span, pairs in sorted(launch.TARGETS.items())
        for module, attr in pairs
    ]


@pytest.mark.parametrize("span, module_name, attr", _targets())
def test_traced_benchmark_target_resolves(span, module_name, attr):
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for part in classes:
        owner = getattr(owner, part)
        assert inspect.isclass(owner), f"{span}: {module_name}.{part} is not a class"
    # a method must be defined on the class itself, a function at module level
    target = owner.__dict__.get(name) if classes else getattr(owner, name, None)
    assert callable(target), f"{span}: {module_name}.{attr} does not exist"
