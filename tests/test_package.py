import agecnn


def test_every_public_name_resolves():
    missing = [name for name in agecnn.__all__ if not hasattr(agecnn, name)]
    assert not missing
    assert len(set(agecnn.__all__)) == len(agecnn.__all__)


def test_star_import():
    # a name in __all__ that the package lacks makes this raise AttributeError
    namespace = {}
    exec("from agecnn import *", namespace)
    assert set(agecnn.__all__) <= set(namespace)
