"""The incremental analysis service: protocol, sessions, maintenance.

Boots the asyncio server on a background thread once per module and
drives it through the blocking :class:`ServiceClient` — the same path
the shell's ``connect`` command and the CI smoke script use.
"""

import threading
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.relations import Relation, open_universe
from repro.service import (
    PROTOCOL_VERSION,
    JeddService,
    ServiceClient,
    ServiceError,
    _WireCache,
    start_in_thread,
)

SETUP = [
    "domain Node 16",
    "attribute src : Node",
    "attribute dst : Node",
    "attribute mid : Node",
    "physdom N1 4",
    "physdom N2 4",
    "finalize",
    "rel edge src:N1 dst:N2",
    "rel path src:N1 dst:N2",
    "insert edge a b",
    "insert edge b c",
    "insert edge c d",
]

TC_RULES = [
    {"head": "path", "vars": ["src", "dst"],
     "body": [["edge", ["src", "dst"]]]},
    {"head": "path", "vars": ["src", "dst"],
     "body": [["edge", ["src", "mid"]],
              ["path", {"src": "mid", "dst": "dst"}]]},
]


@pytest.fixture(scope="module")
def server():
    handle = start_in_thread()
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    c = ServiceClient(server.host, server.port)
    yield c
    c.close()


def fresh_universe(client, name):
    client.open(name)
    client.script(name, SETUP)
    return name


def standing_tc(client, name):
    fresh_universe(client, name)
    return client.request(
        "query.create", universe=name, query="tc",
        facts=["edge"], relations={"path": "path"}, rules=TC_RULES,
    )


class TestProtocol:
    def test_ping(self, client):
        result = client.ping()
        assert result == {"pong": True, "protocol": PROTOCOL_VERSION}

    def test_unknown_op_reported(self, client):
        with pytest.raises(ServiceError, match="unknown op"):
            client.request("frobnicate")

    def test_error_keeps_connection_alive(self, client):
        with pytest.raises(ServiceError):
            client.request("eval", universe="nosuch", expr="x")
        assert client.ping()["pong"] is True

    def test_malformed_expression_survives(self, client):
        fresh_universe(client, "proto")
        with pytest.raises(ServiceError):
            client.eval("proto", "edge |||")
        assert client.eval("proto", "edge")["size"] == 3

    def test_open_reports_created_flag(self, client):
        first = client.open("reopened")
        again = client.open("reopened")
        assert first["created"] in (True, False)
        assert again["created"] is False


class TestShellMultiplexing:
    def test_shell_output_round_trips(self, client):
        fresh_universe(client, "shellout")
        out = client.shell("shellout", "size edge")
        assert out.strip() == "3"

    def test_universes_are_isolated(self, client):
        fresh_universe(client, "iso1")
        client.open("iso2")
        with pytest.raises(ServiceError):
            client.eval("iso2", "edge")

    def test_two_clients_share_a_universe(self, server, client):
        fresh_universe(client, "shared")
        other = ServiceClient(server.host, server.port)
        try:
            assert other.eval("shared", "edge")["size"] == 3
        finally:
            other.close()

    def test_concurrent_requests(self, server, client):
        fresh_universe(client, "concurrent")
        errors = []

        def hammer():
            c = ServiceClient(server.host, server.port)
            try:
                for _ in range(10):
                    if c.eval("concurrent", "edge")["size"] != 3:
                        errors.append("bad size")
            except Exception as err:  # noqa: BLE001 - collected for assert
                errors.append(repr(err))
            finally:
                c.close()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestStandingQueries:
    def test_create_solves(self, client):
        result = standing_tc(client, "sq1")
        assert result["sizes"]["path"] == 6

    def test_insert_and_retract_maintain(self, client):
        standing_tc(client, "sq2")
        grown = client.request(
            "query.update", universe="sq2", query="tc",
            insert={"edge": [["d", "a"]]},
        )
        assert grown["sizes"]["path"] == 16
        shrunk = client.request(
            "query.update", universe="sq2", query="tc",
            retract={"edge": [["d", "a"]]},
        )
        assert shrunk["sizes"]["path"] == 6
        assert shrunk["stats"]["deleted"] > 0

    def test_get_returns_sorted_tuples(self, client):
        standing_tc(client, "sq3")
        got = client.request(
            "query.get", universe="sq3", query="tc", relation="path",
            limit=2,
        )
        assert got["size"] == 6
        assert len(got["tuples"]) == 2

    def test_wire_cache_warms_across_requests(self, client):
        standing_tc(client, "sq4")
        client.request(
            "query.get", universe="sq4", query="tc", relation="path"
        )
        wire = client.request(
            "query.get", universe="sq4", query="tc", relation="path"
        )["wire_cache"]
        assert wire["hits"] >= 1

    def test_wire_cache_entry_cannot_outlive_its_root(self):
        # A cached listing must not be served for a different relation
        # that GC later builds on the recycled root id.
        u = open_universe(
            "bdd", domains={"B": 2}, attributes={"x": "B"},
            physdoms={"P": 1},
        )
        session = SimpleNamespace(wire=_WireCache())
        first = Relation.from_tuples(u, ["x"], [(0,)], ["P"])
        assert JeddService._tuples(first, session) == [[0]]
        root = first.node
        first.dispose()
        del first
        u.manager.gc()
        other = Relation.from_tuples(u, ["x"], [(1,)], ["P"])
        assert other.node == root  # the id really was recycled
        assert JeddService._tuples(other, session) == [[1]]

    def test_query_results_published_to_shell(self, client):
        standing_tc(client, "sq5")
        assert client.eval("sq5", "tc_path")["size"] == 6
        client.request(
            "query.update", universe="sq5", query="tc",
            insert={"edge": [["d", "a"]]},
        )
        assert client.eval("sq5", "tc_path")["size"] == 16

    def test_duplicate_query_name_rejected(self, client):
        standing_tc(client, "sq6")
        with pytest.raises(ServiceError, match="already exists"):
            client.request(
                "query.create", universe="sq6", query="tc",
                facts=["edge"], relations={"path": "path"},
                rules=TC_RULES,
            )

    def test_parallel_policy_rejected(self, client):
        fresh_universe(client, "sq8")
        with pytest.raises(
            ServiceError,
            match=r"unknown engine 'parallel' \(expected 'seminaive'\)",
        ):
            client.request(
                "query.create", universe="sq8", query="tc",
                facts=["edge"], relations={"path": "path"},
                rules=TC_RULES, policy="parallel",
            )
        # Malformed values are rejected too, never read as the default.
        for bad, message in (
            ("", r"unknown engine ''"),
            (0, r"cannot interpret 0 as"),
            (False, r"cannot interpret False as"),
            ([], r"cannot interpret \[\] as"),
        ):
            with pytest.raises(ServiceError, match=message):
                client.request(
                    "query.create", universe="sq8", query="tc",
                    facts=["edge"], relations={"path": "path"},
                    rules=TC_RULES, policy=bad,
                )
        # The same connection goes on to serve valid requests: the
        # default engine by name, and by an absent or null policy.
        for qname, policy in (("tc", "seminaive"), ("tc2", None)):
            result = client.request(
                "query.create", universe="sq8", query=qname,
                facts=["edge"], relations={"path": "path"}, rules=TC_RULES,
                policy=policy,
            )
            assert result["sizes"]["path"] == 6
        result = client.request(
            "query.create", universe="sq8", query="tc3",
            facts=["edge"], relations={"path": "path"}, rules=TC_RULES,
        )
        assert result["sizes"]["path"] == 6

    def test_unknown_query_rejected(self, client):
        fresh_universe(client, "sq7")
        with pytest.raises(ServiceError, match="no standing query"):
            client.request(
                "query.update", universe="sq7", query="nosuch",
                insert={"edge": [["a", "b"]]},
            )


class TestCheckpointing:
    def test_save_load_roundtrip(self, client, tmp_path):
        standing_tc(client, "ckpt")
        path = str(tmp_path / "ckpt.jddu")
        saved = client.request("save", universe="ckpt", path=path)
        assert saved["bytes"] > 0
        assert "tc_path" in saved["relations"]
        restored = client.request("load", universe="ckpt2", path=path)
        assert restored["relations"] == saved["relations"]
        assert client.eval("ckpt2", "tc_path")["size"] == 6

    def test_load_missing_file_reported(self, client, tmp_path):
        with pytest.raises(ServiceError):
            client.request(
                "load", universe="nope",
                path=str(tmp_path / "missing.jddu"),
            )


class TestTelemetryOps:
    @pytest.fixture(autouse=True)
    def _clean_session(self):
        telemetry.disable()
        yield
        telemetry.disable()

    def test_trace_requires_telemetry(self, client, tmp_path):
        client.request("telemetry", mode="off")
        with pytest.raises(ServiceError, match="telemetry is off"):
            client.request("trace", path=str(tmp_path / "t.json"))

    def test_update_emits_incremental_telemetry(self, client, tmp_path):
        import json

        standing_tc(client, "teluni")
        client.request("telemetry", mode="on")
        client.request(
            "query.update", universe="teluni", query="tc",
            insert={"edge": [["d", "a"]]},
        )
        path = str(tmp_path / "service.json")
        client.request("trace", path=path)
        with open(path, "r", encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        names = {e.get("name") for e in events if isinstance(e, dict)}
        assert "incremental.update" in names
        metrics = client.request("metrics")["metrics"]
        assert metrics.get("incremental.kernel_work", 0) > 0
