"""Unit tests for the Pavilion substrate: leadership, browsers, sessions."""

import pytest

from repro.pavilion import (
    BrowseMessage,
    BrowserInterface,
    BrowserProtocolError,
    CollaborativeSession,
    LeadershipError,
    LeadershipProtocol,
    ResourceNotFound,
    ResourceStore,
    SessionError,
    build_demo_site,
)
from repro.proxies import DeviceDescriptor


class TestResourceStore:
    def test_put_and_fetch(self):
        store = ResourceStore()
        store.put("http://x/a", b"<html>a</html>")
        resource = store.fetch("http://x/a")
        assert resource.body == b"<html>a</html>"
        assert resource.size == 14
        assert store.fetch_count == 1
        assert store.bytes_served == 14

    def test_missing_resource_raises(self):
        with pytest.raises(ResourceNotFound):
            ResourceStore().fetch("http://nowhere")

    def test_demo_site_structure(self):
        store = build_demo_site(page_count=5, images_per_page=2, seed=1)
        assert len(store) == 5 * 3
        html_pages = [u for u in store.urls() if u.endswith(".html")]
        assert len(html_pages) == 5

    def test_demo_site_deterministic(self):
        a = build_demo_site(page_count=3, seed=9)
        b = build_demo_site(page_count=3, seed=9)
        for url in a.urls():
            assert a.fetch(url).body == b.fetch(url).body

    def test_demo_site_validation(self):
        with pytest.raises(ValueError):
            build_demo_site(page_count=0)


class TestLeadershipProtocol:
    def test_first_member_becomes_leader(self):
        protocol = LeadershipProtocol()
        assert protocol.join("alice") is True
        assert protocol.join("bob") is False
        assert protocol.leader == "alice"
        assert protocol.members == ["alice", "bob"]

    def test_duplicate_join_rejected(self):
        protocol = LeadershipProtocol()
        protocol.join("alice")
        with pytest.raises(LeadershipError):
            protocol.join("alice")

    def test_request_grant_cycle(self):
        protocol = LeadershipProtocol()
        protocol.join("alice")
        protocol.join("bob")
        assert protocol.request("bob") is False
        assert protocol.pending_requests() == ["bob"]
        new_leader = protocol.grant("alice")
        assert new_leader == "bob"
        assert protocol.leader == "bob"
        assert protocol.leader_changes() == ["alice", "bob"]

    def test_only_leader_can_grant_or_deny(self):
        protocol = LeadershipProtocol()
        protocol.join("alice")
        protocol.join("bob")
        protocol.request("bob")
        with pytest.raises(LeadershipError):
            protocol.grant("bob")
        with pytest.raises(LeadershipError):
            protocol.deny("bob", "bob")

    def test_deny_clears_request(self):
        protocol = LeadershipProtocol()
        protocol.join("alice")
        protocol.join("bob")
        protocol.request("bob")
        protocol.deny("alice", "bob")
        assert protocol.pending_requests() == []

    def test_auto_grant_mode(self):
        protocol = LeadershipProtocol(auto_grant=True)
        protocol.join("alice")
        protocol.join("bob")
        assert protocol.request("bob") is True
        assert protocol.leader == "bob"

    def test_leader_departure_promotes_requester(self):
        protocol = LeadershipProtocol()
        protocol.join("alice")
        protocol.join("bob")
        protocol.join("carol")
        protocol.request("carol")
        assert protocol.leave("alice") == "carol"
        assert protocol.leader == "carol"

    def test_leader_departure_without_requests_promotes_oldest(self):
        protocol = LeadershipProtocol()
        protocol.join("alice", now_s=0.0)
        protocol.join("bob", now_s=1.0)
        protocol.join("carol", now_s=2.0)
        assert protocol.leave("alice") == "bob"

    def test_last_member_leaving_clears_leader(self):
        protocol = LeadershipProtocol()
        protocol.join("alice")
        assert protocol.leave("alice") is None
        assert protocol.leader is None

    def test_release_passes_to_queue_head(self):
        protocol = LeadershipProtocol()
        protocol.join("alice")
        protocol.join("bob")
        protocol.request("bob")
        assert protocol.release("alice") == "bob"
        with pytest.raises(LeadershipError):
            protocol.release("alice")

    def test_request_by_leader_is_trivially_true(self):
        protocol = LeadershipProtocol()
        protocol.join("alice")
        assert protocol.request("alice") is True

    def test_unknown_member_operations_rejected(self):
        protocol = LeadershipProtocol()
        protocol.join("alice")
        with pytest.raises(LeadershipError):
            protocol.request("ghost")
        with pytest.raises(LeadershipError):
            protocol.leave("ghost")
        with pytest.raises(LeadershipError):
            protocol.grant("alice", "ghost")


class TestBrowserInterface:
    def test_message_round_trip(self):
        message = BrowseMessage(message_type="content", sender="alice",
                                url="http://x/a", sequence=3,
                                content_type="text/html", body=b"<html></html>")
        assert BrowseMessage.unpack(message.pack()) == message

    def test_malformed_message_rejected(self):
        with pytest.raises(BrowserProtocolError):
            BrowseMessage.unpack(b"no newline here")
        with pytest.raises(BrowserProtocolError):
            BrowseMessage.unpack(b"not json\nbody")

    def test_announce_and_receive(self):
        leader = BrowserInterface("alice")
        follower = BrowserInterface("bob")
        announcement = leader.announce_url("http://x/a")
        content = leader.content_message("http://x/a", "text/html", b"<html>")
        follower.receive(announcement.pack())
        follower.receive(content.pack())
        assert follower.urls_seen == ["http://x/a"]
        assert follower.pages() == ["http://x/a"]
        assert follower.page("http://x/a").body == b"<html>"
        assert follower.bytes_received() == 6

    def test_receive_garbage_counts_error(self):
        browser = BrowserInterface("bob")
        assert browser.receive(b"garbage") is None
        assert browser.protocol_errors == 1

    def test_unknown_page_lookup_raises(self):
        with pytest.raises(KeyError):
            BrowserInterface("bob").page("http://never")

    def test_summary(self):
        browser = BrowserInterface("bob")
        summary = browser.summary()
        assert summary == {"pages": 0, "urls_seen": 0, "bytes": 0, "errors": 0}


class TestCollaborativeSession:
    def make_session(self, **kwargs):
        store = build_demo_site(page_count=4, images_per_page=1, seed=7)
        return CollaborativeSession(store=store, **kwargs), store

    def test_wired_only_browsing(self):
        session, store = self.make_session()
        try:
            session.join("alice")
            session.join("bob")
            url = [u for u in store.urls() if u.endswith(".html")][0]
            session.browse("alice", url)
            assert session.participant("bob").browser.pages() == [url]
            # The leader's own browser does not receive its multicast copy.
            assert session.participant("alice").browser.pages() == []
        finally:
            session.shutdown()

    def test_only_leader_may_browse(self):
        session, store = self.make_session()
        try:
            session.join("alice")
            session.join("bob")
            with pytest.raises(SessionError):
                session.browse("bob", store.urls()[0])
            with pytest.raises(SessionError):
                session.browse("ghost", store.urls()[0])
        finally:
            session.shutdown()

    def test_floor_handoff_enables_new_leader(self):
        session, store = self.make_session()
        try:
            session.join("alice")
            session.join("bob")
            url = [u for u in store.urls() if u.endswith(".html")][0]
            assert session.request_floor("bob") is False
            assert session.grant_floor() == "bob"
            session.browse("bob", url)
            assert session.participant("alice").browser.pages() == [url]
        finally:
            session.shutdown()

    def test_wireless_member_receives_through_proxy(self):
        session, store = self.make_session()
        try:
            session.join("alice")
            session.join("palmtop", device=DeviceDescriptor.palmtop(),
                         wireless=True, distance_m=10.0)
            urls = [u for u in store.urls() if u.endswith(".html")][:2]
            for url in urls:
                session.browse("alice", url)
            palmtop = session.participant("palmtop")
            assert palmtop.browser.pages() == urls
            assert palmtop.bytes_over_air > 0
            summary = session.delivery_summary()
            assert summary["palmtop"]["pages"] == 2
        finally:
            session.shutdown()

    def test_wireless_compression_reduces_air_bytes(self):
        compressed, store = self.make_session(compress_wireless=True)
        plain, _store2 = self.make_session(compress_wireless=False)
        try:
            for session in (compressed, plain):
                session.join("alice")
                session.join("laptop", wireless=True, distance_m=8.0)
            url = [u for u in store.urls() if u.endswith(".html")][0]
            compressed.browse("alice", url)
            plain.browse("alice", [u for u in _store2.urls()
                                   if u.endswith(".html")][0])
            assert compressed.channel.bytes_sent < plain.channel.bytes_sent
        finally:
            compressed.shutdown()
            plain.shutdown()

    def test_leave_moves_leadership(self):
        session, _store = self.make_session()
        try:
            session.join("alice")
            session.join("bob")
            new_leader = session.leave("alice")
            assert new_leader == "bob"
            assert session.leader == "bob"
            assert session.participants() == ["bob"]
        finally:
            session.shutdown()

    def test_duplicate_join_rejected(self):
        session, _store = self.make_session()
        try:
            session.join("alice")
            with pytest.raises(SessionError):
                session.join("alice")
        finally:
            session.shutdown()
