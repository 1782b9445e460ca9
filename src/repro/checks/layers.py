"""The declared layer DAG of the ``repro`` package.

The reproduction is layered so that simulation physics can never grow a
dependency on the harness that drives it: ``repro.sim`` must stay
importable (and bit-identical) without ``repro.experiments`` or
``repro.plots`` on the path, and nothing in the library may import the
analysis package that audits it.  :data:`LAYERS` writes that contract
down; ``tests/test_layers.py`` fails on every import edge under
``src/repro`` that steps outside it.

Layer names are dotted paths relative to the ``repro`` package.  A
module belongs to the *longest* declared prefix of its dotted tail, so
``plots.spec`` can be carved out of ``plots`` as a finer layer: the
declarative figure vocabulary is importable by ``experiments`` while
the renderer internals (``plots.render`` et al.) stay off limits.  The
empty name is the package root (``repro/__init__.py``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

#: layer → the layers it may import from (itself is always allowed).
LAYERS: Dict[str, FrozenSet[str]] = {
    # Leaf utilities: importable by everyone, import nothing.
    "util": frozenset(),
    # The simulation core and its protocol layers form the seed-pure
    # island: they may see each other and util, never the harness.  The
    # fault-injection engine (repro.sim.faults) lives inside this layer:
    # it drives nodes and channels through their public fault hooks.
    "sim": frozenset({"util", "mac", "routing"}),
    "mac": frozenset({"util", "sim"}),
    "routing": frozenset({"util", "sim"}),
    "core": frozenset({"util", "sim", "mac"}),
    "transport": frozenset({"util", "sim", "mac", "core"}),
    # The declarative figure vocabulary is a leaf: experiments may
    # describe plots without pulling in the renderer.
    "plots.spec": frozenset({"util"}),
    # The fault-injection workload families (experiments.workloads) are
    # ordinary experiments-layer code: grids of FaultPlan-carrying
    # scenario specs beside the paper figures.
    "experiments": frozenset({"util", "sim", "mac", "routing", "core", "transport", "plots.spec"}),
    "plots": frozenset({"util", "experiments", "plots.spec"}),
    # The analysis suite audits the tree; nothing imports it, and it
    # imports nothing outside itself (stdlib ast only).
    "checks": frozenset(),
    # The package root re-exports the public simulation surface.
    "": frozenset({"util", "sim", "mac", "routing", "core", "transport"}),
}


def layer_of(module: str) -> Optional[str]:
    """The layer a dotted module belongs to, or ``None`` outside repro.

    The longest declared prefix wins (``repro.plots.spec`` is
    ``plots.spec``, not ``plots``).  A module under ``repro`` whose top
    package is not declared at all comes back as that *undeclared* top
    name, which :func:`layer_allows` keeps apart from every declared
    layer, so new packages must be added to :data:`LAYERS` deliberately.
    """
    if module != "repro" and not module.startswith("repro."):
        return None
    tail = "" if module == "repro" else module[len("repro.") :]
    best: Optional[str] = None
    for layer in LAYERS:
        if not layer:
            continue
        if tail == layer or tail.startswith(layer + "."):
            if best is None or len(layer) > len(best):
                best = layer
    if best is not None:
        return best
    return tail.split(".")[0] if tail else ""


def layer_allows(importer_layer: str, target_layer: str) -> bool:
    """Whether the DAG permits an import from one layer into another."""
    if importer_layer == target_layer:
        return True
    allowed = LAYERS.get(importer_layer)
    if allowed is None:
        return False
    if target_layer in allowed:
        return True
    # A grant for a layer covers its declared sub-layers too, unless the
    # sub-layer is carved out with its own entry at a finer grain —
    # longest-prefix matching in layer_of already picked that finer name.
    return any(target_layer.startswith(grant + ".") for grant in allowed)
