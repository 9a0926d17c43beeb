"""``repro serve`` — answer sweep queries from the result store.

A small stdlib :mod:`http.server` JSON endpoint over one fabric
directory, for dashboard-style repeated query traffic:

- ``GET /result/<spec-digest>`` — the assembled :class:`ResultSet`
  JSON for a registered spec, straight from the store.  Warm lookups
  recompute nothing (zero cells executed — assembly is reading
  artifacts); an incomplete sweep answers ``202`` with progress, an
  unknown digest ``404``.
- ``POST /sweep`` — body is an :class:`ExperimentSpec` JSON document.
  Registers the spec, enqueues only its missing cells, and answers
  ``200`` with the full result when the store already covers it (the
  repeated-query fast path) or ``202`` with the digest and queue
  counts when cold — workers (``repro work --follow``, or the
  server's own embedded workers) then fill the store.  The body is
  checked before it is read: a missing, negative or non-integer
  ``Content-Length`` answers ``400``, one over :data:`MAX_BODY_BYTES`
  answers ``413``, and a body that is not a JSON object (or not
  decodable at all) answers ``400``.
- ``GET /status`` — queue/lease/store introspection, the HTTP twin of
  ``repro fabric status``.

The server itself never executes cells, so a burst of identical
queries costs file reads, not simulation.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.experiment.spec import ExperimentSpec
from repro.fabric.coordinator import FabricCoordinator
from repro.fabric.layout import PathLike
from repro.fabric.worker import WorkerOptions, _worker_entry

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321

#: Largest ``POST /sweep`` body the server reads; a spec is a few
#: hundred bytes, so anything near this is not a spec.
MAX_BODY_BYTES = 1 << 20

_RESULT_PATH = re.compile(r"^/result/([0-9a-f]{16})$")


class FabricHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the fabric coordinator."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], fabric_dir: PathLike):
        self.coordinator = FabricCoordinator(fabric_dir)
        super().__init__(address, FabricRequestHandler)


class FabricRequestHandler(BaseHTTPRequestHandler):
    server: FabricHTTPServer

    # -- plumbing ------------------------------------------------------
    def _send_json(self, code: int, body: str) -> None:
        payload = body.encode("ascii")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_object(self, code: int, obj: object) -> None:
        self._send_json(
            code, json.dumps(obj, indent=2, sort_keys=True) + "\n"
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test/CI output quiet; use /status for visibility

    # -- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        coordinator = self.server.coordinator
        if self.path == "/status":
            self._send_object(200, coordinator.status())
            return
        match = _RESULT_PATH.match(self.path)
        if match is None:
            self._send_object(404, {"error": "unknown path"})
            return
        digest = match.group(1)
        spec = coordinator.load_spec(digest)
        if spec is None:
            self._send_object(
                404, {"error": f"spec {digest} is not registered"}
            )
            return
        results = coordinator.try_assemble(spec)
        if results is None:
            self._send_object(202, self._progress(digest, spec))
            return
        # Byte-identical to `repro sweep --out`'s file contents.
        self._send_json(200, results.to_json() + "\n")

    # -- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/sweep":
            self._send_object(404, {"error": "unknown path"})
            return
        coordinator = self.server.coordinator
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            length = -1
        if length < 0:
            self._send_object(400, {"error": "invalid Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            self._send_object(
                413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
            )
            return
        try:
            data = json.loads(self.rfile.read(length))
            if not isinstance(data, dict):
                raise TypeError("a spec is a JSON object")
            spec = ExperimentSpec.from_dict(data)
        except (TypeError, ValueError) as exc:
            self._send_object(400, {"error": f"invalid spec: {exc}"})
            return
        digest = coordinator.register(spec)
        counts = coordinator.enqueue_missing(spec)
        results = coordinator.try_assemble(spec)
        if results is not None:
            self._send_json(200, results.to_json() + "\n")
            return
        progress = self._progress(digest, spec)
        progress["enqueued"] = counts["enqueued"]
        self._send_object(202, progress)

    # ------------------------------------------------------------------
    def _progress(self, digest: str, spec: ExperimentSpec) -> dict:
        coordinator = self.server.coordinator
        done = sum(
            1
            for _, key in coordinator.cells(spec)
            if coordinator.store.has(key)
        )
        return {
            "digest": digest,
            "complete": False,
            "cells_total": spec.n_jobs,
            "cells_stored": done,
            "queue": {
                key: value
                for key, value in coordinator.queue.status().items()
                if key in ("pending", "leased", "failed")
            },
        }


def make_server(
    fabric_dir: PathLike,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> FabricHTTPServer:
    """A bound (not yet serving) fabric HTTP server; port 0 = ephemeral."""
    return FabricHTTPServer((host, port), fabric_dir)


def serve(
    fabric_dir: PathLike,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: int = 0,
    worker_options: Optional[WorkerOptions] = None,
) -> None:
    """Serve forever; optionally run embedded follow-mode workers.

    ``workers > 0`` starts that many local worker processes in follow
    mode (they poll for cells that ``POST /sweep`` enqueues), making
    a single ``repro serve --workers N`` a self-contained node; with
    the default 0 the server is storage-only and fleets attach via
    ``repro work <dir> --follow``.
    """
    server = make_server(fabric_dir, host, port)
    pool = []
    if workers > 0:
        import multiprocessing
        import os

        options = worker_options or WorkerOptions(follow=True)
        pool = [
            multiprocessing.Process(
                target=_worker_entry,
                args=(os.fspath(fabric_dir), options),
                daemon=True,
            )
            for _ in range(workers)
        ]
        for process in pool:
            process.start()
    try:
        server.serve_forever()
    finally:
        server.server_close()
        for process in pool:
            process.terminate()
