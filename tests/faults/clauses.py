"""Plan builders for the two crash clauses no entry point scripts.

``FaultPlan`` builds its reached clauses itself (``with_partition`` …
``with_delegate_crash``); a named-process crash and a depth-delegate
crash are built here, appended in order exactly as a builder would.
"""

from repro.addressing import Address
from repro.faults import FaultPlan
from repro.faults.plan import DepthCrash, TargetedCrash


def with_crash(plan, round, address):
    """``plan`` plus a :class:`TargetedCrash` of ``address`` at ``round``."""
    if isinstance(address, str):
        address = Address.parse(address)
    return FaultPlan(plan.clauses + (TargetedCrash(round, address),), plan.name)


def with_depth_crash(plan, round, depth, count=1):
    """``plan`` plus a :class:`DepthCrash` at ``round``."""
    return FaultPlan(plan.clauses + (DepthCrash(round, depth, count),), plan.name)
