"""Quickstart: selective event dissemination in 60 lines.

Builds a 64-process pmcast group whose members subscribe with the
paper's textual interest syntax, publishes two events, and shows that
each event reaches (essentially only) the processes that wanted it.

Run:  python examples/quickstart.py
"""

from repro import (
    AddressSpace,
    Event,
    PmcastConfig,
    PmcastGroup,
    SimConfig,
    parse_subscription,
    run_dissemination,
)


def main() -> None:
    # A regular tree of depth 3 with 4 subgroups per level: 64 processes,
    # addressed 0.0.0 .. 3.3.3 (think: site.rack.host).
    space = AddressSpace.regular(4, 3)
    addresses = space.enumerate_regular(4)

    # The four interests of the paper's Figure 2, one per site.
    figure_2 = (
        "b > 3, 10.0 < c < 220.0",
        'b = 2, e = "Bob" | "Tom"',
        "b > 4, 20.0 < c < 35.0, z < 23002",
        "z <= 50000, c >= 35.997, b != 2",
    )
    members = {
        address: parse_subscription(figure_2[address.components[0]])
        for address in addresses
    }

    group = PmcastGroup.build(
        members, PmcastConfig(fanout=2, redundancy=2, min_rounds_per_depth=2)
    )

    publisher = addresses[0]
    for payload in (
        {"b": 2, "c": 10.0, "e": "Bob", "z": 100},
        {"b": 7, "c": 25.0, "z": 100},
    ):
        event = Event(payload)
        report = run_dissemination(
            group, publisher, event, SimConfig(seed=42)
        )
        print(f"event {payload}:")
        print(f"  interested processes : {report.interested}")
        print(f"  delivered to         : {report.delivered_interested} "
              f"({report.delivery_ratio:.0%} of interested)")
        print(f"  uninterested touched : {report.received_uninterested} "
              f"of {report.uninterested} "
              f"({report.false_reception_ratio:.0%})")
        print(f"  rounds / messages    : {report.rounds} / "
              f"{report.messages_sent}")


if __name__ == "__main__":
    main()
