import os
from pathlib import Path

import pytest

import matsemi
from matsemi import field_make, nil_context, standard_flag


@pytest.fixture(scope="session", autouse=True)
def _children_import_this_tree():
    """Put the directory of the imported matsemi package on PYTHONPATH, so
    the Python processes that tests start import the same tree."""
    src = str(Path(matsemi.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def f2():
    return field_make(2)


@pytest.fixture(scope="session")
def f3():
    return field_make(3)


@pytest.fixture(scope="session")
def f4():
    return field_make(2, 2)


@pytest.fixture(scope="session")
def ctx112(f2):
    return nil_context(standard_flag(f2, (1, 1, 2)))


@pytest.fixture(scope="session")
def ctx121(f2):
    return nil_context(standard_flag(f2, (1, 2, 1)))


@pytest.fixture(scope="session")
def ctx211(f2):
    return nil_context(standard_flag(f2, (2, 1, 1)))


@pytest.fixture(scope="session")
def ctx_complete4(f2):
    return nil_context(standard_flag(f2, (1, 1, 1, 1)))


@pytest.fixture(scope="session")
def ctx212(f2):
    return nil_context(standard_flag(f2, (2, 1, 2)))
