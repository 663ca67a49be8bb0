"""The public surface: what README's "Library" section promises, and no more."""
import dataclasses
import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

import wormchain
import wormchain.estimators as estimators
from wormchain import (DiscreteChain, EnsembleSummary, FrcConfig, KpConfig, Observable,
                       PathSample, path_rng, sample_frc, simulate_kp)

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


def test_readme_and_observable_docstring_name_every_observable_kind():
    # a new kind must be listed in README "Library" and tabulated in the docstring
    listing = _library_section().split("The kinds are", 1)[1].split(";", 1)[0]
    table = re.findall(r"^\s*``(\w+) \(", Observable.__doc__, re.M)
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(estimators._KINDS)
    assert sorted(table) == sorted(estimators._KINDS)


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


# each record's public constructor, and fresh arrays to hand it
_RECORDS = {
    "DiscreteChain": (DiscreteChain, lambda: {"beads": np.arange(12.0).reshape(4, 3),
                                              "phis": np.arange(2.0)}),
    "PathSample": (PathSample, lambda: {"grid": np.arange(3.0),
                                        "tangents": np.arange(9.0).reshape(3, 3),
                                        "positions": np.arange(9.0).reshape(3, 3)}),
    "EnsembleSummary": (lambda **arrays: EnsembleSummary(
        KpConfig(1.0, 1.0, 4), 0, (Observable("v", "path_msd", (0,)),), 2, **arrays),
        lambda: {"means": np.array([1.5]), "m2s": np.array([0.5])}),
}


def _assert_read_only(record, names):
    for name in names:
        held = getattr(record, name)
        assert not held.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 7.0


@pytest.mark.parametrize("kind", list(_RECORDS))
def test_public_constructor_copies_and_freezes(kind):
    build, arrays = _RECORDS[kind]
    given = arrays()
    record = build(**given)
    _assert_read_only(record, given)
    # the caller's arrays stay writable, and writing to them leaves the record as it was
    for name, array in given.items():
        assert array.flags.writeable, name
        array[...] = -1.0
    for name, array in arrays().items():
        assert np.array_equal(getattr(record, name), array), name


def test_sampled_records_are_read_only():
    chain = sample_frc(FrcConfig.scaled(40, 1.0, 1.0), path_rng(1, 0))
    _assert_read_only(chain, ("beads", "phis"))
    path = simulate_kp(KpConfig.create(1.0, 1.0, 40), path_rng(1, 0))
    _assert_read_only(path, ("grid", "tangents", "positions"))
