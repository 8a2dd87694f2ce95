"""The package's public names."""

import debranges


def test_every_exported_name_resolves():
    missing = [name for name in debranges.__all__ if not hasattr(debranges, name)]
    assert missing == []
    assert len(set(debranges.__all__)) == len(debranges.__all__)
