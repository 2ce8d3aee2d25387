"""``POST /v1/check`` integration tests: the warm reasoner over the wire.

Like ``test_wire.py``, the module runs against either backend — the
in-process service by default, or (``REPRO_WIRE_WORKERS=N``) a
multi-process :class:`WorkerPool` — and the conformance tests assert the
two answer *identically* on every semantic field (status, goal, sizes,
witness).  Timing and capacity fields (``elapsed_seconds``, ``decisions``,
``clauses``, ``variables``) are excluded from cross-backend comparison:
the warm clause database legitimately differs from a cold one.
"""

import os

import pytest

from repro.server import ServerThread, ServiceClient, ValidationService, WireError
from repro.server.protocol import MAX_CHECK_DOMAIN, verdict_to_payload
from repro.server.wire import LocalBackend


def _backend_kwargs() -> dict:
    """Worker-pool mode when REPRO_WIRE_WORKERS is set (the CI second pass)."""
    workers = int(os.environ.get("REPRO_WIRE_WORKERS", "0") or "0")
    return {"workers": workers} if workers else {}


#: Semantic fields of a verdict payload: must agree across backends.
SEMANTIC_FIELDS = (
    "status",
    "goal",
    "domain_size",
    "sizes_tried",
    "inconclusive_sizes",
    "witness",
)


def semantic(verdict_payload: dict) -> dict:
    return {key: verdict_payload.get(key) for key in SEMANTIC_FIELDS}


@pytest.fixture(scope="module")
def server():
    with ServerThread(drain_interval=0.02, **_backend_kwargs()) as thread:
        yield thread


@pytest.fixture
def client(server):
    with ServiceClient(server.base_url) as client:
        yield client


def _unsat_script(edit) -> None:
    """A < B with A excl B: concept satisfiability of A is dead."""
    edit("add_entity", "A")
    edit("add_entity", "B")
    edit("add_subtype", "A", "B")
    edit("add_exclusive_types", "A", "B")


def _sat_script(edit) -> None:
    edit("add_entity", "Person")
    edit("add_entity", "Car")
    edit("add_fact", "Drives", "driver", "Person", "driven", "Car")


def _inprocess_verdict(script, goal="strong", max_domain=4) -> dict:
    """The same script checked through an in-process LocalBackend."""
    with ValidationService() as service:
        backend = LocalBackend(service)
        service.open("expected")
        script(lambda verb, *args: service.edit("expected", verb, *args))
        response = backend.handle(
            "check", {"session": "expected", "goal": goal, "max_domain": max_domain}
        )
    return response["check"]


class TestConformance:
    """The wire answer equals the in-process answer, field for field."""

    @pytest.mark.parametrize("goal", ["strong", "concept", "weak", "global"])
    def test_sat_schema_agrees_across_backends(self, client, goal):
        name = f"conf-sat-{goal}"
        client.open(name)
        _sat_script(lambda verb, *args: client.edit(name, verb, *args))
        remote = client.check(name, goal)
        client.close(name)
        expected = _inprocess_verdict(_sat_script, goal)
        assert semantic(remote) == semantic(expected)
        assert remote["status"] == "sat"
        if goal in ("strong", "global"):  # weak/concept may leave facts empty
            assert remote["witness"]["facts"]["Drives"]

    def test_unsat_schema_agrees_across_backends(self, client):
        client.open("conf-unsat")
        _unsat_script(lambda verb, *args: client.edit("conf-unsat", verb, *args))
        remote = client.check("conf-unsat", ("type", "A"), max_domain=3)
        client.close("conf-unsat")
        expected = _inprocess_verdict(
            _unsat_script, {"kind": "type", "name": "A"}, max_domain=3
        )
        assert semantic(remote) == semantic(expected)
        assert remote["status"] == "unsat"
        assert remote["sizes_tried"] == [0, 1, 2, 3]

    def test_repeated_checks_across_edits(self, client):
        """The warm path over the wire: edit, check, edit, check — each
        verdict matches a cold in-process run of the prefix."""
        client.open("warm-seq")
        client.edit("warm-seq", "add_entity", "A")
        client.edit("warm-seq", "add_entity", "B")
        first = client.check("warm-seq", "concept", max_domain=2)
        assert first["status"] == "sat"
        client.edit("warm-seq", "add_subtype", "A", "B")
        constraint = client.edit("warm-seq", "add_exclusive_types", "A", "B")
        second = client.check("warm-seq", "concept", max_domain=3)
        assert second["status"] == "unsat"
        expected = _inprocess_verdict(_unsat_script, "concept", max_domain=3)
        assert semantic(second) == semantic(expected)
        # Removal over the wire restores satisfiability.
        client.edit("warm-seq", "remove_constraint", constraint["label"])
        third = client.check("warm-seq", "concept", max_domain=2)
        assert third["status"] == "sat"
        client.close("warm-seq")

    def test_goal_roundtrips_in_both_forms(self, client):
        client.open("goal-forms")
        _sat_script(lambda verb, *args: client.edit("goal-forms", verb, *args))
        as_tuple = client.check("goal-forms", ("role", "driver"), max_domain=2)
        as_object = client.check(
            "goal-forms", {"kind": "role", "name": "driver"}, max_domain=2
        )
        client.close("goal-forms")
        assert semantic(as_tuple) == semantic(as_object)
        assert as_tuple["goal"] == {"kind": "role", "name": "driver"}


class TestTypedErrors:
    def test_unknown_session_is_404(self, client):
        with pytest.raises(WireError) as excinfo:
            client.check("never-opened")
        assert excinfo.value.code == "unknown_session"
        assert excinfo.value.http_status == 404

    def test_unknown_goal_string_is_422(self, client):
        client.open("badgoal-str")
        with pytest.raises(WireError) as excinfo:
            client.check("badgoal-str", "bogus")
        assert excinfo.value.code == "unknown_goal"
        assert excinfo.value.http_status == 422
        client.close("badgoal-str")

    def test_unknown_goal_element_is_422(self, client):
        client.open("badgoal-elem")
        client.edit("badgoal-elem", "add_entity", "A")
        for goal in (("type", "Ghost"), ("role", "ghost"), ("roles", ("g1", "g2"))):
            with pytest.raises(WireError) as excinfo:
                client.check("badgoal-elem", goal)
            assert excinfo.value.code == "unknown_goal"
        with pytest.raises(WireError) as excinfo:
            client.check("badgoal-elem", {"kind": "predicate", "name": "x"})
        assert excinfo.value.code == "unknown_goal"
        client.close("badgoal-elem")

    def test_out_of_range_max_domain_is_400(self, client):
        client.open("baddomain")
        for bad in (-1, MAX_CHECK_DOMAIN + 1, 99):
            with pytest.raises(WireError) as excinfo:
                client.check("baddomain", max_domain=bad)
            assert excinfo.value.code == "malformed_request"
            assert excinfo.value.http_status == 400
        client.close("baddomain")

    def test_malformed_goal_shape_is_400(self, client):
        client.open("badshape")
        for bad in ({"kind": "role"}, {"name": "x"}, 42, ["role", "x"]):
            with pytest.raises(WireError) as excinfo:
                client.check("badshape", bad)
            assert excinfo.value.code == "malformed_request"
        client.close("badshape")

    def test_check_after_close_is_404(self, client):
        client.open("closed-then-checked")
        client.close("closed-then-checked")
        with pytest.raises(WireError) as excinfo:
            client.check("closed-then-checked")
        assert excinfo.value.code == "unknown_session"


class TestServicePayloadShape:
    def test_verdict_payload_is_deterministic(self):
        """Byte-for-byte determinism of the witness serialization — the
        property the cross-backend comparisons above rest on."""
        import json

        def run():
            with ValidationService() as service:
                service.open("det")
                _sat_script(lambda verb, *args: service.edit("det", verb, *args))
                verdict = service.check("det", "strong", max_domain=3)
            payload = verdict_to_payload(verdict)
            payload.pop("elapsed_seconds")
            return json.dumps(payload, sort_keys=True)

        assert run() == run()

    def test_verdict_payload_carries_solver_stats(self):
        """The CDCL statistics are observable on the wire payload."""
        with ValidationService() as service:
            service.open("stats")
            _sat_script(lambda verb, *args: service.edit("stats", verb, *args))
            verdict = service.check("stats", "strong", max_domain=3)
        payload = verdict_to_payload(verdict)
        for stat in ("conflicts", "restarts", "learned_clauses", "kept_clauses"):
            assert isinstance(payload[stat], int)
            assert payload[stat] >= 0

    def test_service_check_validates_max_domain(self):
        with ValidationService() as service:
            service.open("neg")
            with pytest.raises(ValueError):
                service.check("neg", max_domain=-1)
