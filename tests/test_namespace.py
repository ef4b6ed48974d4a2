"""The root namespace: the imports and the __all__ list of minterp/__init__.py agree."""

import types

import minterp


def test_every_export_resolves():
    assert [name for name in minterp.__all__ if not hasattr(minterp, name)] == []
    assert len(set(minterp.__all__)) == len(minterp.__all__)


def test_every_public_root_attribute_is_exported():
    public = {name for name, value in vars(minterp).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(minterp.__all__)) == []
