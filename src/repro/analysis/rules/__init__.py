"""The project lint rules, registered in the ``lint_rule`` family.

Importing this package (the family's bootstrap module) registers every
built-in rule; :func:`repro.analysis.engine.default_rules` instantiates
them through the registry, so downstream code can add project rules the
same way it adds objectives or pool backends:

    from repro.spec import registry
    registry.register("lint_rule", "my-rule", MyRule)
"""

from ...spec import registry as spec_registry
from .broad_except import BroadExceptRule
from .counter_namespace import CounterNamespaceRule
from .determinism import DeterminismRule
from .guarded_by import GuardedByRule
from .registry_bypass import RegistryBypassRule
from .wire_frames import WireFrameCoverageRule

__all__ = [
    "BroadExceptRule",
    "CounterNamespaceRule",
    "DeterminismRule",
    "GuardedByRule",
    "RegistryBypassRule",
    "WireFrameCoverageRule",
]

for _rule in (
    WireFrameCoverageRule,
    GuardedByRule,
    DeterminismRule,
    CounterNamespaceRule,
    BroadExceptRule,
    RegistryBypassRule,
):
    spec_registry.register("lint_rule", _rule.name, _rule)
