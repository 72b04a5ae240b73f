import types

import meterfuse


def test_all_names_every_public_binding():
    namespace: dict = {}
    exec("from meterfuse import *", namespace)  # a name in __all__ but not bound fails here
    public = {
        name
        for name, value in vars(meterfuse).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(meterfuse.__all__) == public
    assert set(namespace) - {"__builtins__"} == public
