"""The server under test: a real ``python -m repro serve`` subprocess.

Every process started here is registered with a :class:`Reaper`, whose
``close`` kills and waits for all of them and removes the run's scratch
directory — on success, failure and timeout alike.  Children also ask
the kernel to kill them should the benchmark itself die (``kill -9`` of
the generator must not leave an orphan ``repro serve``).
"""

from __future__ import annotations

import ctypes
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Set, Tuple

from benchmarks.e2e import config
from repro.client import HQLClient

BOOT_TIMEOUT_S = 60.0
_PR_SET_PDEATHSIG = 1


def cpu_split() -> Tuple[Set[int], Set[int]]:
    """``(server cpus, generator cpus)``: the CPUs this process may use,
    split in halves.  Left to the scheduler, the server's and the
    generator's threads migrate between two cores and the same code
    measures 3000 or 3900 requests/s from one run to the next; pinned
    apart, run-to-run spread drops to a few percent.  With a single CPU
    (or no affinity API) nothing is pinned."""
    if not hasattr(os, "sched_getaffinity"):
        return set(), set()
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(), set()
    half = len(cpus) // 2
    return set(cpus[:half]), set(cpus[half:])


def _child_setup(cpus: Set[int]):
    def setup() -> None:
        if cpus:
            os.sched_setaffinity(0, cpus)
        try:
            ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        except (OSError, AttributeError):
            pass  # not Linux: the Reaper is the only guard

    return setup


class ServerProcess:
    """One ``repro serve`` child bound to an ephemeral port."""

    def __init__(self, data_dir: str, log_path: str, cpus: Set[int]) -> None:
        self.data_dir = data_dir
        self.log_path = log_path
        self.cpus = cpus
        self.port: Optional[int] = None
        self.ready_s = 0.0
        self._stderr = None
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> "ServerProcess":
        """Spawn, wait for the listening line, and answer one ping.
        ``ready_s`` is process start -> first ping answered."""
        env = dict(os.environ)
        src = os.path.join(config.ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["REPRO_WIRE_FORMAT"] = config.WIRE_FORMAT
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--data-dir", self.data_dir,
            "--snapshot-interval", str(config.SNAPSHOT_INTERVAL),
        ]
        if config.FSYNC:
            command.append("--fsync")
        self._stderr = open(self.log_path, "ab")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=config.ROOT,
            preexec_fn=_child_setup(self.cpus),
        )
        self.port = self._await_port()
        with self.client(connect_attempts=50, retry_delay=0.02) as client:
            if not client.ping():
                raise RuntimeError("server did not answer ping")
        self.ready_s = time.perf_counter() - began
        return self

    def _await_port(self) -> int:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        seen = b""
        while True:
            for line in seen[: seen.rfind(b"\n") + 1].splitlines():
                if b"listening on" in line:
                    return int(line.rsplit(b":", 1)[1])
            remaining = deadline - time.monotonic()
            ready = remaining > 0 and select.select([fd], [], [], remaining)[0]
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(
                    "server {} during boot; stdout {!r}; stderr tail {!r}".format(
                        "timed out" if remaining <= 0 else "exited", seen, self._log_tail()
                    )
                )
            seen += chunk

    def _log_tail(self) -> bytes:
        try:
            with open(self.log_path, "rb") as handle:
                return handle.read()[-2000:]
        except OSError:
            return b""

    def client(self, db: Optional[str] = None, **kwargs) -> HQLClient:
        options = dict(render=False, wire_format=config.WIRE_FORMAT, reconnect=False, timeout=60.0)
        options.update(kwargs)
        return HQLClient(port=self.port, db=db, **options)

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        with open("/proc/{}/status".format(self.proc.pid), "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for pid {}".format(self.proc.pid))

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill(self) -> None:
        """``kill -9`` and reap."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None


class Reaper:
    """Owns the run's scratch directory, every server it started, and
    the CPU split between them and this process."""

    def __init__(self) -> None:
        os.makedirs(config.RESULTS_DIR, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=config.RESULTS_DIR)
        self.servers: List[ServerProcess] = []
        self._dirs = 0
        self.server_cpus, self.generator_cpus = cpu_split()
        self._own_cpus = os.sched_getaffinity(0) if self.generator_cpus else None
        if self.generator_cpus:
            os.sched_setaffinity(0, self.generator_cpus)

    def new_data_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, "data{}".format(self._dirs))
        os.makedirs(path)
        return path

    def spawn(self, data_dir: str) -> ServerProcess:
        server = ServerProcess(
            data_dir, os.path.join(self.scratch, "server.err"), self.server_cpus
        )
        self.servers.append(server)
        return server.start()

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        self.servers = []
        shutil.rmtree(self.scratch, ignore_errors=True)
        if self._own_cpus is not None:
            os.sched_setaffinity(0, self._own_cpus)
            self._own_cpus = None

    def __enter__(self) -> "Reaper":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
