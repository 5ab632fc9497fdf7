"""Bounded session logs: a request's events live on its result.

A tenant session is long-lived and every request runs on a fork that
shares the session's event log.  The session releases each request's
events once the request ends, so the log holds only the in-flight
request: memory and per-request cost stay flat with uptime, while the
events themselves remain on the result and in the ledger run.
"""

from __future__ import annotations

from repro.core import GEN, RET, Pipeline
from repro.serve import ServeRequest
from repro.serve.traffic import MAP_PROMPT

from tests.serve.test_server import make_server, request_for

REQUESTS = 300


def _serve_sequentially(server, tenant: str, count: int):
    """Submit ``count`` requests one at a time, checking the log after each."""
    session = server.session(tenant)
    responses = []
    for index in range(count):
        response = server.submit(request_for(server, tenant, index)).result()
        assert response.ok, response.error
        assert len(session.state.events) == 0
        responses.append(response)
    return responses


class TestBoundedSessionLog:
    def test_log_is_empty_after_every_request(self):
        server = make_server()
        server.add_tenant("hot")
        with server:
            responses = _serve_sequentially(server, "hot", REQUESTS)
        # Per-request cost is flat: every single-GEN request carries the
        # same number of events as the first, however long the tenant ran.
        counts = {len(response.result.events) for response in responses}
        assert counts == {len(responses[0].result.events)}
        assert len(responses[0].result.events) > 0

    def test_sequence_numbers_stay_unique_per_session(self):
        server = make_server()
        server.add_tenant("hot")
        with server:
            responses = _serve_sequentially(server, "hot", 5)
        seqs = [
            event.seq for response in responses for event in response.result.events
        ]
        assert seqs == sorted(set(seqs))

    def test_failed_request_still_releases_its_events(self):
        server = make_server()
        # GEN records its events, then RET raises on an unregistered source.
        server.register_pipeline(
            "broken",
            Pipeline([GEN("summary", prompt="map_p"), RET("no_such_source")]),
            prompts={"map_p": MAP_PROMPT},
            strict=False,
        )
        server.add_tenant("acme")
        session = server.session("acme")
        with server:
            failed = server.submit(
                ServeRequest(
                    tenant="acme",
                    pipeline="broken",
                    context={"tweet": server.corpus[0].text},
                )
            ).result()
            assert failed.status == "error"
            assert len(session.state.events) == 0
            follow_up = server.submit(request_for(server, "acme")).result()
        assert follow_up.ok
        assert len(session.state.events) == 0

    def test_batch_request_releases_its_events(self):
        server = make_server()
        server.add_tenant("acme")
        items = [{"tweet": tweet.text} for tweet in server.corpus[:3]]
        with server:
            response = server.submit(
                ServeRequest(tenant="acme", pipeline="summarize", items=items)
            ).result()
        assert response.ok
        assert len(server.session("acme").state.events) == 0

    def test_ledger_run_holds_exactly_the_result_events(self, tmp_path):
        server = make_server(ledger_dir=str(tmp_path))
        server.add_tenant("acme")
        with server:
            responses = _serve_sequentially(server, "acme", 5)
        run_dirs = sorted((tmp_path / "acme").iterdir())
        assert len(run_dirs) == len(responses)
        for run_dir, response in zip(run_dirs, responses):
            lines = (run_dir / "events.jsonl").read_text(encoding="utf-8")
            assert len(lines.splitlines()) == len(response.result.events)
