"""Built-in rule set.

Importing this package registers every built-in rule with
:mod:`repro.checks.registry`.  Third-party or experiment-local rules can
be added the same way: subclass :class:`repro.checks.registry.Rule`,
decorate with :func:`repro.checks.registry.register`, and import the
module before running the suite.
"""

from repro.checks.rules import contracts, determinism, exceptions

__all__ = ["contracts", "determinism", "exceptions"]
