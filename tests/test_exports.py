"""Every name a ``repro`` package lists in ``__all__`` resolves.

A re-export left behind by a deleted function would break ``from
repro.<package> import *`` and any caller that trusts ``__all__``.
"""

import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts) for init in (SRC / "repro").rglob("__init__.py")
)


def test_every_package_is_checked():
    assert {"repro", "repro.core", "repro.sim", "repro.routing", "repro.util"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{package}.__all__ lists a name twice"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
