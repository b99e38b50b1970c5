"""Every function the traced benchmark run wraps still exists.

``perfbench/targets.py`` names program functions by module and attribute
path; ``perfbench --trace 1`` wraps each one and crashes on a name that
no longer resolves.  Checking the names here makes a rename fail the
test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TARGETS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "targets.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_targets", _TARGETS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_targets = _load_targets()
ALL_TARGETS = _targets.SERVER_TARGETS + _targets.CLIENT_TARGETS


def test_target_list_is_complete():
    assert len(ALL_TARGETS) == 33


@pytest.mark.parametrize(
    "module_name,path", [(t[0], t[1]) for t in ALL_TARGETS], ids=lambda v: str(v)
)
def test_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    # The tracer replaces class attributes on the class that defines them.
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{module_name}.{path}"
    assert callable(getattr(owner, attr)), f"{module_name}.{path}"
