"""ServeApp request-core tests: routing, envelope, errors, backpressure.

All through :meth:`repro.serve.ServeApp.handle` directly — no sockets
— which is the point of the framework-free core: the entire HTTP
behavior is testable as a pure ``Request -> Response`` function.
"""

import dataclasses
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.app as app_module
from repro.obs import parse_metrics
from repro.serve import (ENDPOINTS_BY_NAME, SERVE_SCHEMA,
                         SERVE_SCHEMA_VERSION, Request, ServeApp,
                         SnapshotHolder, canonical_json)
from repro.serve.app import splice_envelope


@pytest.fixture(scope="module")
def holder(study):
    return SnapshotHolder(study.dataset)


@pytest.fixture()
def app(holder):
    return ServeApp(holder)


def get(app, path, **query):
    return app.handle(Request("GET", path,
                              query={k: str(v)
                                     for k, v in query.items()}))


def post(app, path, body):
    return app.handle(Request("POST", path,
                              body=json.dumps(body).encode()))


class TestSystemEndpoints:
    def test_healthz_is_always_ok(self, app):
        response = get(app, "/healthz")
        assert response.status == 200
        assert response.json_payload()["status"] == "ok"

    def test_readyz_reports_generation_and_fingerprint(self, app,
                                                       holder):
        payload = get(app, "/readyz").json_payload()
        assert payload["ready"] is True
        assert payload["generation"] == holder.generation
        assert payload["fingerprint"] == \
            holder.current().fingerprint

    def test_readyz_503_while_not_ready(self, app, holder):
        holder._ready = False
        try:
            response = get(app, "/readyz")
        finally:
            holder._ready = True
        assert response.status == 503
        assert response.json_payload()["ready"] is False

    def test_index_lists_every_endpoint(self, app):
        payload = get(app, "/").json_payload()
        names = {e["name"] for e in payload["endpoints"]}
        assert names == {"importance", "unweighted", "completeness",
                         "curve", "plan", "evaluate", "stats",
                         "dep_semantics", "series_stats",
                         "trend_importance", "trend_completeness",
                         "release_diff"}

    def test_metrics_scrape_parses_and_carries_serve_gauges(self, app):
        get(app, "/v1/dataset/stats")
        response = get(app, "/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        samples = parse_metrics(response.body.decode())
        assert samples["repro_serve_requests"] >= 1
        assert "repro_serve_snapshot_generation" in samples
        assert "repro_serve_qcache_entries" in samples


class TestEnvelope:
    def test_success_envelope_shape(self, app, holder):
        payload = get(app, "/v1/dataset/stats").json_payload()
        assert payload["schema"] == SERVE_SCHEMA
        assert payload["version"] == SERVE_SCHEMA_VERSION
        assert payload["endpoint"] == "stats"
        assert payload["fingerprint"] == \
            holder.current().fingerprint
        assert payload["generation"] == holder.generation
        assert payload["cached"] is False
        assert payload["data"]["n_packages"] == \
            len(holder.current().dataset.packages)

    def test_body_is_canonical_json(self, app):
        body = get(app, "/v1/dataset/stats").body
        decoded = json.loads(body)
        canonical = json.dumps(decoded, sort_keys=True,
                               separators=(",", ":")).encode() + b"\n"
        assert body == canonical

    def test_second_identical_query_is_served_from_cache(self, app):
        first = get(app, "/v1/importance", limit=5).json_payload()
        second = get(app, "/v1/importance", limit=5).json_payload()
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["data"] == second["data"]

    def test_semantically_equal_queries_share_a_cache_entry(self, app):
        post(app, "/v1/completeness",
             {"supported": ["write", "read", "read"]})
        response = post(app, "/v1/completeness",
                        {"supported": ["read", "write"]})
        assert response.json_payload()["cached"] is True


_json_leaves = (st.integers()
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([-0.0, 1e308, -1e308])
                | st.text())
_json_values = st.recursive(
    _json_leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children,
                                        max_size=4)),
    max_leaves=20)
_meta = st.fixed_dictionaries(
    {"schema": st.just(SERVE_SCHEMA),
     "version": st.just(SERVE_SCHEMA_VERSION),
     "endpoint": st.sampled_from(sorted(ENDPOINTS_BY_NAME)),
     "fingerprint": st.text("0123456789abcdef", min_size=1),
     "generation": st.integers(min_value=1)},
    optional={"release": st.integers(min_value=0),
              "tenant": st.text(min_size=1) | st.just("débian-β")})


class TestSplice:
    @settings(max_examples=200, deadline=None)
    @given(meta=_meta, cached=st.booleans(), payload=_json_values)
    def test_splice_equals_encoding_the_whole_envelope(
            self, meta, cached, payload):
        spliced = splice_envelope(meta, cached, canonical_json(payload))
        assert spliced == canonical_json(
            {**meta, "cached": cached, "data": payload}) + b"\n"

    def test_warm_hit_never_encodes_the_payload(self, app,
                                                monkeypatch):
        first = get(app, "/v1/importance", limit=5)
        payload = first.json_payload()["data"]
        encoded = []

        def recording(value):
            encoded.append(value)
            return canonical_json(value)

        monkeypatch.setattr(app_module, "canonical_json", recording)
        second = get(app, "/v1/importance", limit=5)
        assert second.json_payload()["cached"] is True
        assert second.json_payload()["data"] == payload
        assert encoded, "the envelope fields are still encoded"
        for value in encoded:
            assert value != payload
            assert "data" not in value

    def test_unencodable_payload_errors_alike_and_is_not_cached(
            self, app):
        stats = app._routes["/v1/dataset/stats"]["GET"]
        app._routes["/v1/dataset/stats"]["GET"] = dataclasses.replace(
            stats, payload=lambda dataset, params: {
                "value": float("nan")})
        first = get(app, "/v1/dataset/stats")
        second = get(app, "/v1/dataset/stats")
        assert first.status == second.status == 400
        assert first.json_payload()["error"]["class"] == \
            second.json_payload()["error"]["class"] == "bad_request"
        assert len(app.qcache) == 0


class TestErrors:
    def test_unknown_path_is_404(self, app):
        response = get(app, "/v1/nope")
        assert response.status == 404
        error = response.json_payload()["error"]
        assert error["class"] == "not_found"
        assert error["status"] == 404

    def test_wrong_method_is_405(self, app):
        response = post(app, "/v1/importance", {})
        assert response.status == 405
        assert response.json_payload()["error"]["class"] == \
            "method_not_allowed"

    def test_bad_dimension_is_400(self, app):
        response = get(app, "/v1/importance", dimension="bogus")
        assert response.status == 400
        error = response.json_payload()["error"]
        assert error["class"] == "bad_request"
        assert "bogus" in error["message"]

    def test_malformed_json_body_is_400(self, app):
        response = app.handle(Request("POST", "/v1/completeness",
                                      body=b"{not json"))
        assert response.status == 400

    def test_missing_required_body_field_is_400(self, app):
        response = post(app, "/v1/completeness", {"dimension": "all"})
        assert response.status == 400
        assert "supported" in \
            response.json_payload()["error"]["message"]

    def test_error_envelope_carries_schema(self, app):
        payload = get(app, "/v1/nope").json_payload()
        assert payload["schema"] == SERVE_SCHEMA
        assert payload["version"] == SERVE_SCHEMA_VERSION
        assert "data" not in payload


class TestBackpressure:
    def test_saturated_slots_shed_with_429_and_retry_after(self,
                                                           holder):
        app = ServeApp(holder, concurrency=1,
                       max_wait_seconds=0.01)
        with app.admission.slot():  # occupy the only slot
            response = get(app, "/v1/dataset/stats")
        assert response.status == 429
        assert response.headers["Retry-After"] == "1"
        assert response.json_payload()["error"]["class"] == \
            "overloaded"
        assert app.admission.stats()["rejected"] == 1

    def test_retry_after_never_truncates_to_zero(self, holder):
        # str(int(0.4)) would have advertised "Retry-After: 0" — an
        # immediate-retry stampede invitation.  Sub-second hints must
        # round *up* to the one-second floor.
        from repro.serve import OverloadedError, Request
        app = ServeApp(holder)
        for hint, expected in ((0.05, "1"), (0.9, "1"),
                               (1.0, "1"), (2.3, "3")):
            response = app._error_response(
                Request("GET", "/v1/dataset/stats"),
                OverloadedError(hint, slots=1))
            assert response.status == 429
            assert response.headers["Retry-After"] == expected

    def test_slot_released_after_shed(self, holder):
        app = ServeApp(holder, concurrency=1,
                       max_wait_seconds=0.01)
        with app.admission.slot():
            assert get(app, "/v1/dataset/stats").status == 429
        assert get(app, "/v1/dataset/stats").status == 200

    def test_expired_deadline_maps_to_504(self, holder):
        app = ServeApp(holder, deadline_seconds=0.0)
        response = get(app, "/v1/dataset/stats")
        assert response.status == 504
        assert response.json_payload()["error"]["class"] == \
            "deadline"

    def test_late_result_is_cached_so_the_retry_hits(self, holder):
        app = ServeApp(holder, concurrency=2, max_wait_seconds=0.0,
                       deadline_seconds=0.05)
        route = app._routes["/v1/importance"]["GET"]
        calls = []

        def slow(dataset, params):
            calls.append((dataset, params))
            time.sleep(0.2)
            return route.payload(dataset, params)

        app._routes["/v1/importance"]["GET"] = dataclasses.replace(
            route, payload=slow)
        first = get(app, "/v1/importance", limit=5)
        assert first.status == 504
        assert first.json_payload()["error"]["class"] == "deadline"
        retry = get(app, "/v1/importance", limit=5)
        assert retry.status == 200
        assert retry.json_payload()["cached"] is True
        assert len(calls) == 1
        dataset, params = calls[0]
        library = canonical_json(route.payload(dataset, params))
        assert retry.body.startswith(
            b'{"cached":true,"data":' + library + b",")
        assert app.admission.stats()["in_flight"] == 0
        with app.admission.slot(), app.admission.slot():
            pass  # both slots are free again

    def test_probes_bypass_admission(self, holder):
        app = ServeApp(holder, concurrency=1,
                       max_wait_seconds=0.01)
        with app.admission.slot():
            assert get(app, "/healthz").status == 200
            assert get(app, "/readyz").status == 200
            assert get(app, "/metrics").status == 200


class TestReload:
    def test_reload_swaps_generation_and_keeps_fingerprint(
            self, holder, tmp_path):
        app = ServeApp(holder)
        path = tmp_path / "snapshot.json"
        holder.export_to_file(path)
        before = holder.generation
        response = post(app, "/admin/reload", {"path": str(path)})
        assert response.status == 200
        payload = response.json_payload()
        assert payload["generation"] == before + 1
        assert payload["fingerprint"] == \
            holder.current().fingerprint

    def test_reload_missing_body_is_400(self, app):
        response = post(app, "/admin/reload", {})
        assert response.status == 400

    def test_reload_bad_path_is_failure_not_crash(self, app, holder):
        before = holder.generation
        response = post(app, "/admin/reload",
                        {"path": "/nonexistent/snap.json"})
        assert response.status >= 400
        assert holder.generation == before  # old snapshot kept

    def test_reload_can_be_disabled(self, holder, tmp_path):
        app = ServeApp(holder, allow_reload=False)
        path = tmp_path / "snapshot.json"
        holder.export_to_file(path)
        response = post(app, "/admin/reload", {"path": str(path)})
        assert response.status == 500
        assert holder.generation == app.holder.generation
