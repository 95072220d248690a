import pytest

from wallcross import criterion, linprog


@pytest.fixture(autouse=True)
def fresh_caches():
    # the package keeps the analysis of the last curve and the slope-free
    # half of the last torus program; a test that monkeypatches a layer
    # must not read one built before its patch
    criterion._kept.clear()
    linprog._program.cache_clear()
