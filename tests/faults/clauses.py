"""Plan builders for the two crash clauses no entry point scripts, and
the generated fault plans the property tests draw.

``FaultPlan`` builds its reached clauses itself (``with_partition`` …
``with_delegate_crash``); a named-process crash and a depth-delegate
crash are built here, appended in order exactly as a builder would.
"""

from hypothesis import strategies as st

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


def clause_strategy(victims, depth):
    """One clause as ``(builder, args, kwargs)``: a burst, partition or
    delay over one of a few subtrees (a prefix no member has matches
    nobody) for 1–4 rounds, or a crash of one of ``victims``, of a
    subtree's delegates or of depth-``1..depth`` delegates; each starts
    in rounds 0–8."""
    rounds = st.integers(0, 8)
    windows = st.tuples(rounds, st.integers(1, 4)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    )
    subtrees = st.sampled_from(["0", "1", "2", "0.1", "3.2"])
    scopes = st.one_of(st.none(), subtrees)
    return st.one_of(
        st.tuples(
            st.just("with_loss_burst"), windows,
            st.sampled_from([0.3, 1.0]), scopes,
        ).map(lambda c: (c[0], (*c[1], c[2]), {"dest_prefix": c[3]})),
        st.tuples(
            st.just("with_partition"), windows,
            st.sampled_from([("0", "1"), ("1", "2"), ("0.0", "3")]),
        ).map(lambda c: (c[0], (*c[1], *c[2]), {})),
        st.tuples(
            st.just("with_delay"), windows, st.integers(1, 3),
            st.sampled_from([0.5, 1.0]), scopes,
        ).map(lambda c: (c[0], (*c[1], c[2], c[3]), {"dest_prefix": c[4]})),
        st.tuples(
            st.just("with_crash"), rounds, st.sampled_from(victims),
        ).map(lambda c: (c[0], (c[1], c[2]), {})),
        st.tuples(
            st.just("with_delegate_crash"), rounds, subtrees, st.integers(1, 2),
        ).map(lambda c: (c[0], (c[1], c[2]), {"count": c[3]})),
        st.tuples(
            st.just("with_depth_crash"), rounds, st.integers(1, depth),
            st.integers(1, 3),
        ).map(lambda c: (c[0], (c[1], c[2]), {"count": c[3]})),
    )


@st.composite
def plans(draw, victims, depth):
    """A plan of up to five clauses drawn from :func:`clause_strategy`."""
    plan = FaultPlan(name="generated")
    builders = {"with_crash": with_crash, "with_depth_crash": with_depth_crash}
    for method, args, kwargs in draw(st.lists(clause_strategy(victims, depth), max_size=5)):
        build = builders.get(method)
        plan = build(plan, *args, **kwargs) if build else getattr(plan, method)(*args, **kwargs)
    return plan
