"""Wire front integration tests: a live loopback server under concurrent
clients, and the full structured-error surface.

The acceptance bar (ISSUE 4): 64 concurrent clients against one
``WireServer``, with every session's wire report **multiset-equal** to the
in-process :class:`ValidationService` run of the same edit script; and
every client-provokable failure — malformed JSON, unknown session,
edit-after-close, server shutdown mid-drain — answered with a structured
error body, never a hang or a traceback-body 500.

The whole module runs against either backend: the default in-process
service, or — with ``REPRO_WIRE_WORKERS=N`` in the environment (the CI
``--workers 2`` pass) — a multi-process :class:`WorkerPool`, proving the
two deployments are wire-indistinguishable.
"""

import http.client
import json
import os
import threading
from collections import Counter

import pytest

from repro.server import ServerThread, ServiceClient, ValidationService, WireError
from repro.server.client import WireTransportError
from repro.server.protocol import WIRE_VERSION, report_to_payload
from repro.tool import ValidatorSettings


def _backend_kwargs() -> dict:
    """Worker-pool mode when REPRO_WIRE_WORKERS is set (the CI second pass)."""
    workers = int(os.environ.get("REPRO_WIRE_WORKERS", "0") or "0")
    return {"workers": workers} if workers else {}


@pytest.fixture(scope="module")
def server():
    """One live loopback server for the whole module (fresh sessions per
    test keep the tests independent)."""
    with ServerThread(drain_interval=0.02, **_backend_kwargs()) as thread:
        yield thread


@pytest.fixture
def client(server):
    with ServiceClient(server.base_url) as client:
        yield client


def _scripted_edits(handle_like, index: int) -> None:
    """One deterministic modeling script, parameterized by client index.

    ``handle_like`` only needs ``edit(verb, *args)`` — satisfied by both
    the wire client (via a lambda) and the in-process session handle.
    """
    handle_like("add_entity", "Hub")
    for fact in range(3 + index % 3):
        handle_like("add_entity", f"T{fact}")
        handle_like("add_fact", f"F{fact}", f"a{fact}", "Hub", f"b{fact}", f"T{fact}")
        if fact % 2 == 0:
            handle_like("add_uniqueness", f"a{fact}")
    if index % 2 == 0:
        # FC(5) against a 2-value pool: Pattern 4 fires.
        handle_like("add_entity", "Pool", ["v1", "v2"])
        handle_like("add_fact", "uses", "u1", "Hub", "u2", "Pool")
        handle_like("add_frequency", "u1", 5)


def _expected_payload(index: int, settings=None) -> dict:
    """The in-process ValidationService run of the same script."""
    with ValidationService(settings=settings) as service:
        handle = service.open(f"expected{index}")
        _scripted_edits(lambda verb, *args: handle.edit(verb, *args), index)
        report = handle.close()
    return report_to_payload(report)


class TestRoundtrip:
    def test_open_edit_report_close(self, client):
        client.open("roundtrip")
        _scripted_edits(lambda verb, *args: client.edit("roundtrip", verb, *args), 0)
        report = client.report("roundtrip")
        expected = _expected_payload(0)
        expected["schema"] = report["schema"]  # session names differ
        assert report == expected
        final = client.close("roundtrip")
        assert final["satisfiable_by_patterns"] == report["satisfiable_by_patterns"]

    def test_edit_returns_the_created_element(self, client):
        client.open("labels")
        created = client.edit("labels", "add_entity", "Person")
        assert created == {"kind": "ObjectType", "name": "Person"}
        client.edit("labels", "add_fact", "knows", "k1", "Person", "k2", "Person")
        constraint = client.edit("labels", "add_uniqueness", "k1")
        assert constraint["kind"] == "UniquenessConstraint"
        assert constraint["label"]  # schema-generated, usable in remove_constraint
        client.edit("labels", "remove_constraint", constraint["label"])
        client.close("labels")

    def test_open_ships_a_whole_schema_dsl(self, client):
        from repro.workloads.figures import build_figure

        schema = build_figure("fig1_phd_student")
        client.open("shipped", schema=schema)
        report = client.close("shipped")
        assert report["satisfiable_by_patterns"] is False
        assert report["violations"][0]["pattern"] == "P2"

    def test_settings_profile_travels_with_open(self, client):
        settings = ValidatorSettings(formation_rules=True)
        client.open("profiled", settings=settings)
        client.edit("profiled", "add_entity", "T")
        client.edit("profiled", "add_fact", "f", "r1", "T", "r2", "T")
        client.edit("profiled", "add_frequency", "r1", 1, 1)  # FR1 style finding
        report = client.close("profiled")
        assert any(f["rule"] == "FR1" for f in report["formation_rules"])

    def test_drain_and_healthz_expose_the_census(self, client):
        client.open("census")
        client.edit("census", "add_entity", "T")
        stats = client.drain(["census"])
        assert stats["examined"] == 1
        health = client.healthz()
        assert health["status"] == "serving"
        assert health["wire_version"] == WIRE_VERSION
        assert health["stats"]["sessions"] >= 1
        client.close("census")

    def test_empty_drain_list_returns_zeroed_stats(self, client):
        """Both backends must answer the degenerate tick with the same
        zeroed DrainStats shape (backend indistinguishability)."""
        assert client.drain([]) == {
            "examined": 0, "drained": 0, "changes": 0, "resumed": 0, "rebuilt": 0,
        }


class TestConcurrentClients:
    CLIENTS = 64

    def test_64_concurrent_clients_match_in_process_reports(self, server):
        results: dict[int, dict] = {}
        errors: list[BaseException] = []

        def one_client(index: int) -> None:
            try:
                with ServiceClient(server.base_url) as client:
                    name = f"c{index}"
                    client.open(name)
                    _scripted_edits(
                        lambda verb, *args: client.edit(name, verb, *args), index
                    )
                    if index % 4 == 0:
                        client.drain([name])  # interleave explicit ticks
                    results[index] = client.close(name)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=one_client, args=(index,))
            for index in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results) == self.CLIENTS
        for index, payload in results.items():
            expected = _expected_payload(index)
            expected["schema"] = payload["schema"]
            assert payload == expected, f"client {index} diverged from in-process run"
            # The acceptance phrasing: reports multiset-equal.
            assert Counter(
                json.dumps(v, sort_keys=True) for v in payload["violations"]
            ) == Counter(
                json.dumps(v, sort_keys=True) for v in expected["violations"]
            )


class TestErrorPaths:
    def test_malformed_json_body_is_a_structured_400(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request(
            "POST",
            "/v1/open",
            body=b"{this is not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["ok"] is False
        assert payload["error"]["code"] == "malformed_request"
        assert "Traceback" not in payload["error"]["message"]

    def test_oversized_request_line_is_a_structured_400(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/" + "a" * (128 * 1024))  # past the reader limit
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "malformed_request"

    def test_missing_and_mistyped_fields(self, client):
        with pytest.raises(WireError) as excinfo:
            client._request("POST", "/v1/open", {})
        assert excinfo.value.code == "malformed_request"
        with pytest.raises(WireError) as excinfo:
            client._request("POST", "/v1/edit", {"session": 7, "verb": "add_entity"})
        assert excinfo.value.code == "malformed_request"

    def test_unknown_session_is_404(self, client):
        for method in ("report", "close"):
            with pytest.raises(WireError) as excinfo:
                getattr(client, method)("never-opened")
            assert excinfo.value.code == "unknown_session"
            assert excinfo.value.http_status == 404

    def test_edit_after_close_is_a_structured_404(self, client):
        client.open("shortlived")
        client.close("shortlived")
        with pytest.raises(WireError) as excinfo:
            client.edit("shortlived", "add_entity", "Late")
        assert excinfo.value.code == "unknown_session"

    def test_unknown_edit_verb_is_400(self, client):
        client.open("verbs-err")
        with pytest.raises(WireError) as excinfo:
            client.edit("verbs-err", "drop_table", "x")
        assert excinfo.value.code == "unknown_verb"
        client.close("verbs-err")

    def test_bad_edit_arguments_are_422_not_500(self, client):
        client.open("args-err")
        with pytest.raises(WireError) as excinfo:
            client.edit("args-err", "add_fact", "only-a-name")  # wrong arity
        assert excinfo.value.code == "schema_error"
        assert excinfo.value.http_status == 422
        with pytest.raises(WireError) as excinfo:
            client.edit("args-err", "add_uniqueness", "no-such-role")
        assert excinfo.value.code == "schema_error"
        client.close("args-err")

    def test_duplicate_open_is_409(self, client):
        client.open("dup")
        with pytest.raises(WireError) as excinfo:
            client.open("dup")
        assert excinfo.value.code == "session_exists"
        assert excinfo.value.http_status == 409
        client.close("dup")

    def test_unparseable_schema_dsl_is_422(self, client):
        with pytest.raises(WireError) as excinfo:
            client.open("bad-dsl", schema="wibble wobble\n")
        assert excinfo.value.code == "schema_error"

    def test_bad_settings_are_malformed_request(self, client):
        with pytest.raises(WireError) as excinfo:
            client.open("bad-settings", settings={"patterns": ["P77"]})
        assert excinfo.value.code == "malformed_request"
        with pytest.raises(WireError) as excinfo:
            client.open("bad-settings", settings={"turbo": True})
        assert excinfo.value.code == "malformed_request"

    def test_unknown_endpoint_and_wrong_method(self, client):
        with pytest.raises(WireError) as excinfo:
            client._request("POST", "/v1/nope", {})
        assert excinfo.value.code == "unknown_endpoint"
        with pytest.raises(WireError) as excinfo:
            client._request("GET", "/v1/report")
        assert excinfo.value.code == "method_not_allowed"
        with pytest.raises(WireError) as excinfo:
            client._request("POST", "/healthz", {})
        assert excinfo.value.code == "method_not_allowed"


class TestReportEtag:
    """The /v1/report ETag short-circuit over the wire (hit, miss, and
    survival across journal compaction; the service-level contract is in
    tests/server/test_service.py)."""

    def test_hit_then_miss_then_hit_again(self, client):
        client.open("etag")
        client.edit("etag", "add_entity", "A")
        first = client.poll_report("etag")
        assert "report" in first and first["mark"]
        hit = client.poll_report("etag", if_mark=first["mark"])
        assert hit == {"unchanged": True, "mark": first["mark"]}
        client.edit("etag", "add_entity", "B")
        miss = client.poll_report("etag", if_mark=first["mark"])
        assert "report" in miss and miss["mark"] != first["mark"]
        assert client.poll_report("etag", if_mark=miss["mark"]).get("unchanged")
        client.close("etag")

    def test_stale_mark_still_gets_a_full_report(self, client):
        client.open("etag-stale")
        client.edit("etag-stale", "add_entity", "A")
        old = client.poll_report("etag-stale")
        for index in range(5):
            client.edit("etag-stale", "add_entity", f"T{index}")
        refreshed = client.poll_report("etag-stale", if_mark=old["mark"])
        assert "unchanged" not in refreshed
        assert refreshed["report"]["schema"]
        client.close("etag-stale")

    def test_report_without_mark_is_unchanged_shape_free(self, client):
        client.open("etag-plain")
        payload = client.report("etag-plain")  # the PR-4 surface, untouched
        assert payload["satisfiable_by_patterns"] is True
        client.close("etag-plain")

    def test_mismatched_if_mark_type_is_malformed(self, client):
        client.open("etag-type")
        with pytest.raises(WireError) as excinfo:
            client._request("POST", "/v1/report", {"session": "etag-type", "if_mark": 7})
        assert excinfo.value.code == "malformed_request"
        client.close("etag-type")


class TestAuth:
    """Shared-token auth: /v1/* requires the bearer token, /healthz stays
    open for liveness probes, comparisons never leak via exceptions."""

    @pytest.fixture()
    def auth_server(self):
        with ServerThread(drain_interval=None, token="s3kr1t", **_backend_kwargs()) as thread:
            yield thread

    def test_verbs_require_the_token(self, auth_server):
        anonymous = ServiceClient(auth_server.base_url)
        with pytest.raises(WireError) as excinfo:
            anonymous.open("locked")
        assert excinfo.value.code == "unauthorized"
        assert excinfo.value.http_status == 401

    def test_wrong_token_and_wrong_scheme_are_unauthorized(self, auth_server):
        for bad in ("Bearer wrong", "Basic s3kr1t", "s3kr1t"):
            host, port = auth_server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request(
                "POST", "/v1/report", body=b'{"session": "x"}',
                headers={"Authorization": bad},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            assert response.status == 401, bad
            assert payload["error"]["code"] == "unauthorized"

    def test_correct_token_round_trips(self, auth_server):
        with ServiceClient(auth_server.base_url, token="s3kr1t") as client:
            client.open("keyed")
            client.edit("keyed", "add_entity", "T")
            assert client.report("keyed")["satisfiable_by_patterns"] is True
            client.close("keyed")

    def test_healthz_stays_open_for_liveness_probes(self, auth_server):
        anonymous = ServiceClient(auth_server.base_url)
        assert anonymous.healthz()["status"] == "serving"

    def test_untokened_server_stays_open_on_loopback(self, server):
        """The default (no token) keeps working — loopback-only binds are
        the CLI default, and the CLI refuses non-loopback binds untokened
        (tests/tool/test_cli.py)."""
        with ServiceClient(server.base_url) as client:
            client.open("open-default")
            client.close("open-default")


class TestShutdown:
    def test_shutdown_mid_drain_returns_structured_errors(self):
        """Requests racing server shutdown get a clean 503, and the server
        stops promptly even with sessions mid-edit (nothing hangs)."""
        thread = ServerThread(drain_interval=0.01).start()
        try:
            client = ServiceClient(thread.base_url, timeout=10)
            client.open("doomed")
            for index in range(20):
                client.edit("doomed", "add_entity", f"T{index}")
            thread.begin_shutdown()  # lame-duck: drains may be in flight
            with pytest.raises(WireError) as excinfo:
                client.report("doomed")
            assert excinfo.value.code == "server_shutdown"
            assert excinfo.value.http_status == 503
            # healthz keeps answering so orchestrators can see the state.
            assert client.healthz()["status"] == "shutting_down"
            client.close_connection()
        finally:
            thread.stop()

    def test_requests_after_full_stop_fail_at_transport_level(self):
        thread = ServerThread(drain_interval=None).start()
        base_url = thread.base_url
        thread.stop()
        with pytest.raises((WireTransportError, WireError)):
            ServiceClient(base_url, timeout=2).healthz()


class TestConstruction:
    def test_conflicting_backend_selectors_are_rejected(self):
        """workers=N with an explicit service must error, not silently run
        single-process under a multi-process-looking configuration."""
        from repro.server import WireServer

        with ValidationService() as service:
            with pytest.raises(ValueError):
                WireServer(service, workers=2)
        with pytest.raises(ValueError):
            WireServer(workers=-1)
        # Drains always run inline: a drain-pool width is refused, not ignored.
        with pytest.raises(ValueError):
            WireServer(max_workers=4)
