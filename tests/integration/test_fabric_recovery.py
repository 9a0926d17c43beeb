"""Fabric end-to-end: crash recovery, resume, and serving.

The fabric's headline contract is *indifference to failure shape*:
whether a sweep runs serially in one process, across a worker fleet,
or through an interrupted fleet whose cells are reclaimed by a
differently-sized second fleet, the assembled :class:`ResultSet` JSON
is byte-for-byte identical.  These tests exercise that contract with
a real SIGKILL mid-cell (via the ``REPRO_FABRIC_HOLD_SECONDS`` chaos
hook, so the worker dies while reliably holding a lease) and with the
``repro serve`` HTTP endpoint answering warm lookups from the store.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiment import ExperimentSpec, Runner
from repro.fabric import FabricCoordinator, FabricWorker, make_server
from repro.fabric.serve import MAX_BODY_BYTES
from repro.fabric.worker import HOLD_ENV

SPEC = ExperimentSpec(
    workloads=("barnes-hut",),
    kind="tradeoff",
    n_references=1500,
    policies=("owner",),
)

#: Runtime-kind spec with a bandwidth axis: exercises the baseline
#: normalization (directory = 100 runtime, snooping = 100 traffic)
#: that assembly must reproduce bit-exactly.
RUNTIME_SPEC = ExperimentSpec(
    workloads=("barnes-hut",),
    kind="runtime",
    n_references=1500,
    policies=("owner",),
    link_bandwidths=(10.0, 2.5),
)


def serial_reference(spec):
    """What the fabric must reproduce byte-for-byte."""
    return Runner(jobs=1).run(spec)


class TestCoordinatorByteIdentity:
    def test_fabric_json_matches_serial(self, tmp_path):
        results = FabricCoordinator(tmp_path).run(SPEC, workers=1)
        serial = serial_reference(SPEC)
        assert results == serial
        assert results.to_json() == serial.to_json()

    def test_runtime_normalization_survives_assembly(self, tmp_path):
        results = FabricCoordinator(tmp_path).run(
            RUNTIME_SPEC, workers=1
        )
        serial = serial_reference(RUNTIME_SPEC)
        assert results.to_json() == serial.to_json()

    def test_interrupt_resume_different_worker_count(self, tmp_path):
        # First invocation: partial progress only (one cell), as if
        # interrupted.  Second invocation: different worker count,
        # resumes the remaining cells without recomputing the first.
        coordinator = FabricCoordinator(tmp_path)
        coordinator.enqueue_missing(RUNTIME_SPEC)
        FabricWorker(tmp_path, max_cells=1).run()

        counts = coordinator.enqueue_missing(RUNTIME_SPEC)
        assert counts["stored"] == 1
        results = coordinator.run(RUNTIME_SPEC, workers=2)
        assert results.to_json() == serial_reference(
            RUNTIME_SPEC
        ).to_json()


class TestCrashRecovery:
    def test_sigkilled_worker_lease_reclaimed(self, tmp_path):
        """SIGKILL a worker mid-cell; a second worker finishes the job.

        The first worker is a real OS process started via the CLI
        (``python -m repro work``), held mid-cell by the chaos hook so
        the kill lands while its lease is live.  After the TTL lapses,
        an in-process worker reclaims the cell and drains the queue;
        the assembled ResultSet must be byte-identical to serial.
        """
        coordinator = FabricCoordinator(tmp_path, lease_ttl=1.5)
        coordinator.enqueue_missing(SPEC)

        env = dict(os.environ)
        env[HOLD_ENV] = "120"  # hold forever (by test standards)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [env.get("PYTHONPATH"), "src"])
        )
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "work",
                os.fspath(tmp_path), "--lease-ttl", "1.5",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until the victim holds a lease (claim file exists).
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if any(coordinator.layout.claims.glob("*.json")):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("victim worker never claimed a cell")
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10.0)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()

        # The dead worker's heartbeat stops; after the TTL the rescue
        # worker reclaims the cell (one "lease expired" attempt is
        # recorded) and drains the queue.
        rescue = FabricWorker(
            tmp_path, worker_id="rescue", lease_ttl=1.5
        )
        deadline = time.time() + 60.0
        while coordinator.try_assemble(SPEC) is None:
            rescue.run()
            assert time.time() < deadline, "queue never drained"
            time.sleep(0.1)

        results = coordinator.try_assemble(SPEC)
        assert not results.failures  # reclaimed, not quarantined
        assert results.to_json() == serial_reference(SPEC).to_json()

        # The interruption left an audit trail: the reclaim bumped the
        # cell's attempt count before the rescue worker completed it.
        status = coordinator.status()
        assert status["pending"] == 0
        assert status["leased"] == 0


class TestServeEndpoint:
    @pytest.fixture()
    def server(self, tmp_path):
        httpd = make_server(tmp_path, port=0)  # ephemeral port
        thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        thread.start()
        yield httpd
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5.0)

    def _get(self, server, path):
        url = f"http://127.0.0.1:{server.server_address[1]}{path}"
        try:
            with urllib.request.urlopen(url) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def _post(self, server, path, body):
        url = f"http://127.0.0.1:{server.server_address[1]}{path}"
        request = urllib.request.Request(
            url, data=body.encode("ascii"), method="POST"
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def test_unknown_digest_404(self, server):
        code, body = self._get(server, "/result/" + "0" * 16)
        assert code == 404
        assert b"not registered" in body

    def test_bad_path_404(self, server):
        code, _ = self._get(server, "/result/short")
        assert code == 404

    def test_status_endpoint(self, server, tmp_path):
        code, body = self._get(server, "/status")
        assert code == 200
        status = json.loads(body)
        assert status["pending"] == 0
        assert status["fabric_dir"] == str(tmp_path)

    def test_cold_post_enqueues_then_drains_to_200(
        self, server, tmp_path
    ):
        code, body = self._post(server, "/sweep", SPEC.to_json())
        assert code == 202
        progress = json.loads(body)
        assert progress["enqueued"] == SPEC.n_jobs
        assert progress["cells_stored"] == 0

        FabricWorker(tmp_path).run()

        digest = progress["digest"]
        code, body = self._get(server, f"/result/{digest}")
        assert code == 200
        expected = serial_reference(SPEC).to_json() + "\n"
        assert body == expected.encode("ascii")

    def test_warm_lookup_recomputes_nothing(self, server, tmp_path):
        # Fill the store first, through the coordinator.
        coordinator = FabricCoordinator(tmp_path)
        results = coordinator.run(SPEC, workers=1)
        digest = coordinator.register(SPEC)

        # Warm POST answers 200 immediately — and enqueues nothing.
        code, body = self._post(server, "/sweep", SPEC.to_json())
        assert code == 200
        assert body == (results.to_json() + "\n").encode("ascii")
        assert coordinator.queue.pending_keys() == []

        # Warm GET: byte-identical to the sweep's --out file.
        code, body = self._get(server, f"/result/{digest}")
        assert code == 200
        assert body == (results.to_json() + "\n").encode("ascii")

    def test_invalid_spec_400(self, server):
        code, body = self._post(server, "/sweep", '{"kind": "nope"}')
        assert code == 400
        assert b"invalid spec" in body

    # -- hostile bodies: raw sockets, so the request says exactly what
    # the test means (urllib would fix up Content-Length) --------------
    def _raw_post(self, server, headers, body=b""):
        """Send one raw POST /sweep; return (status, body) of the reply.

        The socket timeout turns a server that hangs on the request
        into a test failure instead of a stuck suite.
        """
        port = server.server_address[1]
        head = "POST /sweep HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        head += "".join(f"{name}: {value}\r\n" for name, value in headers)
        head += "Connection: close\r\n\r\n"
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(head.encode("ascii") + body)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        reply = b"".join(chunks)
        assert reply, "connection dropped without a response"
        status_line, _, rest = reply.partition(b"\r\n")
        return int(status_line.split()[1]), rest.partition(b"\r\n\r\n")[2]

    @pytest.mark.parametrize("length", ["-1", "abc", "1.5", ""])
    def test_bad_content_length_400(self, server, length):
        code, body = self._raw_post(server, [("Content-Length", length)])
        assert code == 400
        assert b"Content-Length" in body

    def test_missing_content_length_400(self, server):
        code, _ = self._raw_post(server, [])
        assert code == 400

    def test_oversized_body_413_without_reading(self, server, tmp_path):
        # Only the headers are sent: a server that tried to read the
        # declared body would block until the socket timeout.
        code, body = self._raw_post(
            server, [("Content-Length", str(MAX_BODY_BYTES + 1))]
        )
        assert code == 413
        assert str(MAX_BODY_BYTES).encode("ascii") in body
        assert FabricCoordinator(tmp_path).queue.pending_keys() == []

    @pytest.mark.parametrize(
        "payload", [b"[]", b"3", b'"spec"', b"null", b"\xff\xfe\x00", b""]
    )
    def test_non_object_body_400(self, server, payload):
        code, body = self._raw_post(
            server, [("Content-Length", str(len(payload)))], payload
        )
        assert code == 400
        assert b"invalid spec" in body

    def test_body_at_cap_is_read(self, server):
        # A body of exactly MAX_BODY_BYTES is read and judged on its
        # content (here: valid JSON whitespace-padded to the cap).
        payload = SPEC.to_json().encode("ascii")
        payload += b" " * (MAX_BODY_BYTES - len(payload))
        code, body = self._raw_post(
            server, [("Content-Length", str(len(payload)))], payload
        )
        assert code == 202
        assert json.loads(body)["enqueued"] == SPEC.n_jobs
