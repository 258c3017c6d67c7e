import popstab


def test_every_exported_name_resolves():
    assert [name for name in popstab.__all__ if not hasattr(popstab, name)] == []
