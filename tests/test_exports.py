import voxkit


def test_every_exported_name_resolves_and_star_import_is_clean():
    assert len(set(voxkit.__all__)) == len(voxkit.__all__)
    assert [name for name in voxkit.__all__ if not hasattr(voxkit, name)] == []
    namespace = {}
    exec("from voxkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(voxkit.__all__)
