"""The public surface: what README's "Library" section promises, and no more."""
import dataclasses
import importlib
import inspect
import pathlib
import re

import pytest

import wormchain
from wormchain import DiscreteChain, FrcConfig, PathSample

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_MODULES = ("analytics", "chain", "cli", "estimators", "kp", "so3")

# the matrix value layer and the helpers that only tests called; the
# Rodrigues reference now lives in tests/rodrigues.py
_DELETED = {
    "so3": ("SkewSym3", "Rotation3", "UnitVec3", "hat", "exp_rodrigues", "compose", "apply",
            "reorthonormalize", "rodrigues_batch", "_SMALL_ANGLE"),
    "kp": ("BrownianDriver", "step_kp", "tangent_at"),
    "chain": ("interpolate_path",),
}


def _library_section():
    text = _README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def _library_block():
    return re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)


def test_readme_library_example_runs():
    namespace = {}
    exec(compile(_library_block(), "README.md", "exec"), namespace)
    assert namespace["reports"] and all(r.passed for r in namespace["reports"])


def test_readme_lists_the_package_exports():
    listing = _library_section().split("The package exports", 1)[1].split("\n\n", 2)[1]
    listed = set(re.findall(r"`(\w+)`", listing))
    exported = {name for name, value in vars(wormchain).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert listed == exported


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"wormchain.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("module", sorted(_DELETED))
def test_deleted_names_are_gone(module):
    mod = importlib.import_module(f"wormchain.{module}")
    for name in _DELETED[module]:
        assert not hasattr(wormchain, name), name
        assert not hasattr(mod, name), name
        assert name not in mod.__all__


# fields and properties that nothing read: a path record carries the curve,
# not its frames, and a chain's size and bond length live in its config
_DELETED_ATTRIBUTES = {
    FrcConfig: ("kappa", "ell_p"),
    DiscreteChain: ("n_bonds", "bond_length"),
    PathSample: ("frames", "n_steps", "contour_length"),
}


@pytest.mark.parametrize("cls", list(_DELETED_ATTRIBUTES), ids=lambda cls: cls.__name__)
def test_deleted_attributes_are_gone(cls):
    fields = {field.name for field in dataclasses.fields(cls)}
    for name in _DELETED_ATTRIBUTES[cls]:
        assert not hasattr(cls, name), name
        assert name not in fields, name
