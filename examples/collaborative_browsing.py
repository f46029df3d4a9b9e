#!/usr/bin/env python3
"""Pavilion-style collaborative web browsing with a wireless participant.

Three people share a browsing session (the paper's Figure 1):

* a workstation user who starts as the session leader,
* a wired laptop user who later requests and receives the floor, and
* a palmtop user on the wireless LAN whose copy of every page travels
  through a RAPIDware proxy (compressed for the wireless segment).

Run it with ``python examples/collaborative_browsing.py``.
"""

import _path  # noqa: F401

from repro.pavilion import CollaborativeSession, build_demo_site
from repro.proxies import DeviceDescriptor


def main() -> None:
    store = build_demo_site(page_count=8, images_per_page=2, seed=2001)
    session = CollaborativeSession(store=store)
    try:
        session.join("alice-workstation")
        session.join("bob-laptop")
        session.join("carol-palmtop", device=DeviceDescriptor.palmtop(),
                     wireless=True, distance_m=18.0)
        print("participants:", ", ".join(session.participants()))
        print("session leader:", session.leader)
        print()

        pages = [url for url in store.urls() if url.endswith(".html")]

        # The leader drives the session: every page she loads is multicast.
        for url in pages[:3]:
            resource = session.browse("alice-workstation", url)
            print(f"alice loads {url} ({resource.size} bytes) -> multicast to all")

        # Bob asks for the floor; Alice grants it; Bob continues browsing.
        session.request_floor("bob-laptop")
        session.grant_floor()
        print()
        print("floor granted; new leader:", session.leader)
        for url in pages[3:5]:
            resource = session.browse("bob-laptop", url)
            print(f"bob loads {url} ({resource.size} bytes)")

        print()
        print("per-participant delivery summary:")
        for name, summary in sorted(session.delivery_summary().items()):
            print(f"  {name:20} pages={summary['pages']:2}  "
                  f"bytes={summary['bytes']:7}  over-air={summary['over_air_bytes']:7}")
        print()
        original = session.wired_bytes_delivered
        over_air = session.channel.bytes_sent
        print(f"content bytes multicast on the wired LAN : {original}")
        print(f"bytes transmitted on the wireless LAN    : {over_air} "
              f"({100 * session.wireless_compression_ratio():.0f}% of original — "
              "the proxy compresses the wireless segment)")
        print("leadership history:", " -> ".join(session.leadership.leader_changes()))
    finally:
        session.shutdown()


if __name__ == "__main__":
    main()
