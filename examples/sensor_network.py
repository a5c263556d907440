"""Sensor network under churn: join, leave, crash, keep multicasting.

A deployment of sensor gateways arranged by region/cluster/unit uses
pmcast to push alarm events to the operators subscribed to each alarm
class.  The gateways run as one live group (``GroupRuntime``) whose
composition changes while the system runs:

1. a new gateway joins (§2.3): the tables on its prefix path are
   refreshed and it starts watching its leaf subgroup, as they start
   watching it;
2. a gateway leaves gracefully;
3. a gateway crashes silently — its leaf-mates' last-contact failure
   detectors (§2.3) suspect it once it is silent longer than the timeout,
   and once all of them concur (§6) it is excluded;
4. after every change, an alarm is multicast and its delivery measured
   — the tree adapts and dissemination keeps working.

Run:  python examples/sensor_network.py
"""

from repro import (
    Address,
    AddressSpace,
    Event,
    PmcastConfig,
    SimConfig,
    parse_subscription,
)
from repro.sim.runtime import GroupRuntime

#: Rounds of silence a leaf-mate tolerates before it suspects a gateway.
TIMEOUT = 3


def build_members(space: AddressSpace, arity: int):
    """Gateways subscribe to alarm classes by severity."""
    members = {}
    for address in space.enumerate_regular(arity):
        region = address.components[0]
        # Region 0 operators watch everything; others only severe alarms.
        if region == 0:
            members[address] = parse_subscription("severity >= 1")
        else:
            members[address] = parse_subscription("severity >= 3")
    return members


def measure(runtime: GroupRuntime, members, label: str, alarm_id: int) -> None:
    """Multicast an alarm in the running group and report its delivery."""
    alarm = Event({"severity": 4, "unit": "pump-7"}, event_id=alarm_id)
    publisher = sorted(members)[0]
    runtime.publish(publisher, alarm)
    rounds = runtime.run_until_idle()
    interested = [a for a in members if members[a].matches(alarm)]
    others = [a for a in members if not members[a].matches(alarm)]
    delivered = set(runtime.delivered_to(alarm))
    false = sum(runtime.node(a).has_received(alarm) for a in others)
    print(f"{label:<28} n={runtime.size:<4} "
          f"delivery={sum(a in delivered for a in interested) / len(interested):.2f} "
          f"false-reception={false / len(others) if others else 0.0:.2f} "
          f"rounds={rounds}")


def main() -> None:
    space = AddressSpace.regular(6, 3)   # room to grow
    arity = 4                            # 64 gateways initially
    members = build_members(space, arity)
    runtime = GroupRuntime(
        members,
        PmcastConfig(fanout=2, redundancy=2, min_rounds_per_depth=2),
        SimConfig(seed=1),
        detector_timeout=TIMEOUT,
    )
    measure(runtime, members, "initial deployment", alarm_id=1)

    # -- a new gateway joins region 1 ---------------------------------
    newcomer = Address.parse("1.0.4")
    members[newcomer] = parse_subscription("severity >= 2")
    runtime.join(newcomer, members[newcomer])
    print(f"\njoin of {newcomer}: it and its "
          f"{len(runtime.tree.subtree_members(newcomer.prefix(3))) - 1} "
          f"leaf-mates now watch each other")
    measure(runtime, members, "after join", alarm_id=2)

    # -- a gateway leaves gracefully -----------------------------------
    leaver = Address.parse("2.3.3")
    runtime.leave(leaver)
    del members[leaver]
    print(f"\nleave of {leaver}: its prefix path is refreshed")
    measure(runtime, members, "after leave", alarm_id=3)

    # -- a gateway crashes silently ------------------------------------
    victim = Address.parse("3.1.2")
    mates = len(runtime.tree.subtree_members(victim.prefix(3))) - 1
    runtime.crash(victim)
    crashed_at = runtime.round
    # Rounds pass without contact from the victim...
    while runtime.exclusion_round(victim) is None:
        runtime.step()
    del members[victim]
    excluded_at = runtime.exclusion_round(victim)
    print(f"\ncrash of {victim}: its {mates} leaf-mates suspect it after "
          f"more than {TIMEOUT} silent rounds and exclude it "
          f"{excluded_at - crashed_at} rounds after the crash")
    measure(runtime, members, "after crash exclusion", alarm_id=4)


if __name__ == "__main__":
    main()
