"""Starting, driving and stopping the program under test.

Every process runs the checkout's own ``src/`` with BLAS and OpenMP pinned
to one thread and a fixed hash seed.  Untraced processes run
``python3 -m coldroute.cli``; traced ones run the same CLI through
``launch.py``, which wraps the layer functions and writes spans on exit.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
START_TIMEOUT_S = 120.0
CLI_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 10.0


class ProgramError(RuntimeError):
    """A program process failed to start, answer or exit."""


def program_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait(proc: subprocess.Popen, timeout: float) -> float:
    """Reap ``proc`` (killing it after ``timeout``); returns its peak RSS in MB."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


@dataclass
class CliRun:
    wall_s: float
    rss_mb: float


@dataclass
class Reply:
    status: int
    body: dict
    latency_s: float
    rid: str


class Program:
    """Factory for program processes of one stage; collects their span files."""

    def __init__(self, workdir: Path, trace: bool):
        self.workdir = workdir
        self.trace = trace
        self.span_files: list[Path] = []
        self._seq = itertools.count()
        workdir.mkdir(parents=True, exist_ok=True)

    def _argv(self, cli_args: list[str]) -> list[str]:
        if not self.trace:
            return [sys.executable, "-m", "coldroute.cli", *cli_args]
        spans = self.workdir / f"spans-{next(self._seq):04d}.json"
        self.span_files.append(spans)
        return [sys.executable, str(LAUNCHER), str(spans), *cli_args]

    def _log(self, name: str):
        return (self.workdir / name).open("wb")

    def cli(self, cli_args: list[str]) -> CliRun:
        """Run one CLI command to completion; raises if it exits non-zero."""
        with self._log("cli.out") as out, self._log("cli.err") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self._argv(cli_args), env=program_env(), cwd=ROOT,
                                    stdout=out, stderr=err)
            rss = _wait(proc, CLI_TIMEOUT_S)
            wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = (self.workdir / "cli.err").read_text(errors="replace")[-2000:]
            raise ProgramError(f"coldroute {' '.join(cli_args)} exited {proc.returncode}: {tail}")
        return CliRun(wall, rss)

    def service(self, config: Path) -> "Service":
        return Service(self, config)


class Service:
    """One ``coldroute serve`` process, started at construction."""

    _rids = itertools.count()

    def __init__(self, program: Program, config: Path):
        self.port = _free_port()
        self._err_path = program.workdir / "serve.err"
        argv = program._argv(["serve", "--config", str(config), "--port", str(self.port)])
        with open(self._err_path, "wb") as err:
            start = time.perf_counter()
            self.proc = subprocess.Popen(argv, env=program_env(), cwd=ROOT,
                                         stdout=subprocess.DEVNULL, stderr=err)
        self.rss_mb = 0.0
        try:
            self.setup_s = self._await_health(start)
        except BaseException:
            self.stop()
            raise

    def _await_health(self, start: float) -> float:
        while time.perf_counter() - start < START_TIMEOUT_S:
            if self.proc.poll() is not None:
                tail = self._err_path.read_text(errors="replace")[-2000:]
                raise ProgramError(f"service exited {self.proc.returncode} at start: {tail}")
            try:
                if self.request("GET", "/healthz").status == 200:
                    return time.perf_counter() - start
            except OSError:
                time.sleep(0.005)
        raise ProgramError("service did not become healthy")

    def request(self, method: str, path: str, body: dict | None = None) -> Reply:
        rid = f"r{next(self._rids)}"
        raw = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json", "X-Bench-Id": rid}
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=raw, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        latency = time.perf_counter() - start
        return Reply(resp.status, json.loads(data or b"{}"), latency, rid)

    def stop(self) -> None:
        """Terminate the service and reap it.

        SIGTERM, not SIGINT: a process started from a background job inherits
        SIGINT ignored, and the service would not stop.
        """
        if self.proc.returncode is not None:
            return
        self.proc.terminate()
        self.rss_mb = _wait(self.proc, STOP_TIMEOUT_S)

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
