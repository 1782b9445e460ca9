"""ARCH001: the import graph must follow the declared layer DAG.

The whole-program counterpart of the per-file determinism rules: a
single ``from repro.experiments import …`` inside ``repro.sim`` makes
the seed-pure simulation island depend on the harness that drives it,
and nothing file-local can see that.  The contract itself lives in
:mod:`repro.checks.layers`; this rule walks the
:class:`~repro.checks.project.Project`'s resolved import edges and
reports every step outside it.
"""

from __future__ import annotations

from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.layers import LAYERS, layer_allows, layer_of
from repro.checks.project import Project
from repro.checks.registry import ProjectRule, register


@register
class LayerContractRule(ProjectRule):
    """ARCH001: no import edge may step outside the layer DAG."""

    id = "ARCH001"
    summary = "intra-repro imports must follow the layer DAG declared in repro.checks.layers"
    packages = ("repro",)

    def check(self, project: Project) -> Iterator[Finding]:
        for edge in project.import_edges:
            if edge.type_checking:
                continue  # never executes; typing-only cycles are fine
            importer_layer = layer_of(edge.importer)
            target_layer = layer_of(edge.target)
            if importer_layer is None or target_layer is None:
                continue
            if importer_layer not in LAYERS:
                yield self.finding(
                    edge.path,
                    edge.line,
                    edge.column,
                    f"module {edge.importer} sits in layer {importer_layer!r}, which is "
                    "not declared in repro/checks/layers.py; add the new package to "
                    "LAYERS deliberately",
                )
                continue
            if layer_allows(importer_layer, target_layer):
                continue
            allowed = ", ".join(sorted(LAYERS[importer_layer])) or "nothing outside itself"
            yield self.finding(
                edge.path,
                edge.line,
                edge.column,
                f"layer {importer_layer or 'repro (root)'!r} must not import layer "
                f"{target_layer!r} ({edge.importer} → {edge.target}); the DAG in "
                f"repro/checks/layers.py allows it to import: {allowed}",
            )
