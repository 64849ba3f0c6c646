"""The package's public names: each one in __all__ resolves, once."""

import fqpoints


def test_every_exported_name_resolves():
    missing = [name for name in fqpoints.__all__
               if not hasattr(fqpoints, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(fqpoints.__all__) == len(set(fqpoints.__all__))
