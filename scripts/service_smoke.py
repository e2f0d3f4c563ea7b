#!/usr/bin/env python
"""End-to-end smoke of the counting service daemon, as CI runs it.

Spawns a real ``mcml serve`` subprocess and drives it the way a hostile
afternoon would:

* several concurrent :class:`ServiceClient` threads counting distinct
  property CNFs, checked bit-for-bit against an in-process session;
* one client killed mid-request (half a JSON line, then an abrupt
  close) — the daemon must shrug, not crash;
* one client that trips admission control (the daemon runs with a tiny
  queue and per-client budget) and sees a typed ``overloaded`` error;
* a SIGTERM drain: the daemon must exit 0 within the timeout and emit a
  clean ``drained`` event.

Afterwards the daemon's stderr is scanned: any ``Traceback`` means an
exception escaped the typed error taxonomy (the in-process equivalent of
the ``bare-except-allowlist`` gate), and the smoke fails.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py

Exit status 0 on success; any failure prints the evidence and exits 1.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = str(REPO_ROOT / "src")
sys.path.insert(0, SRC_DIR)

from repro.core.session import MCMLSession  # noqa: E402
from repro.counting.service import ServiceClient, ServiceOverloaded  # noqa: E402
from repro.counting.service import protocol  # noqa: E402
from repro.spec import SymmetryBreaking, get_property, translate  # noqa: E402
from repro.spec.properties import property_names  # noqa: E402

DRAIN_TIMEOUT_S = 30


def fail(message: str) -> None:
    print(f"service smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def spawn_daemon(cache_dir: str) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--backend",
            "exact",
            "--cache-dir",
            cache_dir,
            # Tiny admission limits so the storm below reliably trips them.
            "--max-queue",
            "2",
            "--max-inflight",
            "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    ready = json.loads(proc.stdout.readline())
    if ready.get("event") != "listening":
        fail(f"daemon did not report listening: {ready}")
    print(f"  daemon up on {ready['host']}:{ready['port']} (pid {proc.pid})")
    return proc, ready["host"], ready["port"]


def concurrent_clients(host: str, port: int, batch, expected) -> None:
    """N worker threads splitting the batch; bit-identity is the bar."""
    results: list[int | None] = [None] * len(batch)
    errors: list[str] = []
    workers = 3

    def worker(offset: int) -> None:
        # Generous retries: the admission limits are deliberately tiny,
        # so overloaded rejections are expected and must be ridden out.
        client = ServiceClient(host, port, retries=10, backoff_base=0.02)
        try:
            for index in range(offset, len(batch), workers):
                results[index] = client.solve(batch[index]).value
        except Exception as exc:  # noqa: BLE001 - reported as smoke failure
            errors.append(f"worker {offset}: {type(exc).__name__}: {exc}")
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        fail(f"concurrent clients errored: {errors}")
    if results != expected:
        fail(f"remote counts diverge from in-process: {results} != {expected}")
    print(f"  {workers} concurrent clients: {len(batch)} counts bit-identical")


def kill_client_mid_request(host: str, port: int, request_dict: dict) -> None:
    """Half a request line, then an abrupt close — the daemon must survive."""
    line = protocol.encode_line({"id": 1, "verb": "solve", "request": request_dict})
    sock = socket.create_connection((host, port), timeout=10)
    sock.sendall(line[: len(line) // 2])
    sock.close()
    print("  killed one client mid-request (half a line, abrupt close)")


def trip_admission_control(host: str, port: int, pin_dict: dict, probe_dict: dict) -> None:
    """Pipeline past the per-client budget; expect typed rejections.

    The daemon runs with ``--max-inflight 2``.  The burst leads with a
    *pin* — a slow, uncached request that occupies the single solver
    thread — then pipelines identical probe requests behind it.  While
    the pin computes, the first probe is admitted (coalesced waiters
    count against the budget too) and every later one deterministically
    gets the typed ``overloaded`` envelope.
    """
    burst = 6
    lines = [protocol.encode_line({"id": 0, "verb": "solve", "request": pin_dict})]
    lines += [
        protocol.encode_line({"id": i, "verb": "solve", "request": probe_dict})
        for i in range(1, burst)
    ]
    sock = socket.create_connection((host, port), timeout=10)
    try:
        sock.settimeout(30)
        sock.sendall(b"".join(lines))
        reader = protocol.LineReader(sock)
        responses = [protocol.decode_line(reader.readline()) for _ in range(burst)]
    finally:
        sock.close()
    rejected = [
        r for r in responses
        if not r.get("ok") and (r.get("error") or {}).get("code") == "overloaded"
    ]
    if len(rejected) != burst - 2:
        fail(
            f"expected {burst - 2} overloaded rejections (pin + one probe "
            f"admitted), got {len(rejected)}: {responses}"
        )
    if not all((r.get("error") or {}).get("retryable") for r in rejected):
        fail(f"overloaded rejection not marked retryable: {rejected}")
    # And a well-behaved client with no retry budget sees the typed error.
    client = ServiceClient(host, port, retries=0)
    try:
        client.solve(translate(get_property("PartialOrder"), 3).cnf)
    except ServiceOverloaded:
        pass  # also acceptable: the daemon may still be digesting the burst
    finally:
        client.close()
    print(f"  admission control tripped: {len(rejected)}/{burst} typed 'overloaded'")


def drain(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    try:
        stdout, stderr = proc.communicate(timeout=DRAIN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"daemon did not drain within {DRAIN_TIMEOUT_S}s of SIGTERM")
    if proc.returncode != 0:
        fail(f"daemon exited {proc.returncode} after SIGTERM:\n{stderr}")
    events = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    drained = [e for e in events if e.get("event") == "drained"]
    if not drained or not drained[-1].get("clean"):
        fail(f"no clean drained event on stdout: {events}")
    print("  SIGTERM drain: exit 0, drained clean")
    return stderr


def check_stderr(stderr: str) -> None:
    """No exception may escape the typed taxonomy into the daemon's log."""
    if "Traceback (most recent call last)" in stderr:
        fail(f"daemon stderr contains a traceback:\n{stderr}")
    print("  daemon stderr: no tracebacks (typed errors only)")


def main() -> None:
    print("counting-service smoke")
    symmetry = SymmetryBreaking()
    batch = []
    for name in tuple(property_names())[:3]:
        prop = get_property(name)
        batch.append(translate(prop, 3, symmetry=symmetry).cnf)
        batch.append(translate(prop, 3).cnf)
    with MCMLSession(backend="exact") as session:
        expected = [session.solve(problem).value for problem in batch]
    probe = ServiceClient._as_request(batch[0]).to_dict()
    # Slow and uncached on the daemon: pins the solver for the admission
    # storm (the scope-5 symbr instance takes over a second of real search,
    # dwarfing the microseconds the reader needs to dispatch the burst).
    pin = ServiceClient._as_request(
        translate(get_property("PartialOrder"), 5, symmetry=symmetry).cnf
    ).to_dict()

    with tempfile.TemporaryDirectory() as cache_dir:
        proc, host, port = spawn_daemon(cache_dir)
        try:
            concurrent_clients(host, port, batch, expected)
            kill_client_mid_request(host, port, probe)
            trip_admission_control(host, port, pin, probe)
            # The daemon must still answer correctly after the abuse.
            client = ServiceClient(host, port, retries=10)
            try:
                value = client.solve(batch[0]).value
            finally:
                client.close()
            if value != expected[0]:
                fail(f"post-abuse count diverged: {value} != {expected[0]}")
            print("  daemon still answers correctly after the abuse")
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        stderr = drain(proc)
        check_stderr(stderr)
    print("ok")


if __name__ == "__main__":
    main()
