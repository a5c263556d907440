"""Exception hierarchy for the ``repro`` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` library."""


class AddressError(ReproError):
    """An address or prefix is malformed or out of its space's bounds."""


class PredicateError(ReproError):
    """A predicate or subscription is malformed or type-inconsistent."""


class ParseError(PredicateError):
    """The textual subscription language could not be parsed."""


class MembershipError(ReproError):
    """The membership tree or a view table is in an inconsistent state."""


class ProtocolError(ReproError):
    """The pmcast protocol state machine received an invalid input."""


class ConfigError(ReproError):
    """A configuration value is out of its documented range."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class AnalysisError(ReproError):
    """An analytical model was evaluated outside its domain."""


class ObservabilityError(ReproError):
    """The observability layer was misused or a trace is malformed."""


class FaultError(ReproError):
    """A fault plan is malformed or cannot be applied to the group."""


class ValidationError(ReproError):
    """The conformance harness was misconfigured or a report is malformed."""


class ParallelError(ReproError):
    """The parallel trial executor was misused."""


class NetError(ReproError):
    """The network plane was misused: bad schedule, clock misuse,
    unresolvable transport destination, or a runtime invariant broke."""
