"""The package's export list is the union of its modules' export lists."""

from __future__ import annotations

import ccbound
from ccbound import bounds, fluid, packetsim, scenarios, trace


def test_all_is_the_modules_exports_without_duplicates():
    names = ccbound.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(ccbound, name) is not None
    modules = (trace, bounds, fluid, packetsim, scenarios)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))
