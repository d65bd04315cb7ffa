import types

import orimat


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(orimat.__all__)) == len(orimat.__all__)
    for name in orimat.__all__:
        assert not isinstance(getattr(orimat, name), types.ModuleType), name
