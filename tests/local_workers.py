"""Start shard workers for a coordinator: threads, or worker processes.

The library starts no worker of its own: a
:class:`~repro.distributed.Coordinator` only listens, and
``goggles-repro worker`` is the one way a worker process joins.  The
tests, ``scripts/soak_distributed.py`` and
``benchmarks/bench_distributed.py`` start theirs here:

* :func:`thread_workers` — :class:`~repro.distributed.Worker` loops in
  threads of this process, for protocol tests: cheap, yet every lease
  and report still crosses the broker's TCP socket;
* :func:`process_workers` — ``python -m repro.cli worker`` subprocesses,
  for real process boundaries, kills and chaos.

Outside pytest, put ``tests/`` on ``sys.path`` to import this module.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.distributed import Coordinator, Worker

SRC = str(Path(__file__).resolve().parent.parent / "src")
#: Seconds each worker thread or process gets to stop on exit.
STOP_TIMEOUT = 10.0


@contextmanager
def thread_workers(coordinator: Coordinator, n: int, **worker_options: object) -> Iterator[list[Worker]]:
    """Run ``n`` worker loops in threads, connected to ``coordinator``.

    The workers count into the coordinator's registry, so they ship no
    telemetry (it would count twice).  ``worker_options`` go to each
    :class:`Worker`.  On exit every worker is stopped and its thread
    joined within :data:`STOP_TIMEOUT`; a thread still alive then fails
    the caller.  With ``n == 0`` the coordinator is not started.
    """
    workers = [
        Worker(
            coordinator.address,
            coordinator.config.authkey,
            registry=coordinator.registry,
            **worker_options,
        )
        for _ in range(n)
    ]
    threads = [
        threading.Thread(target=worker.run, name=f"goggles-worker-{index}", daemon=True)
        for index, worker in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    try:
        yield workers
    finally:
        for worker in workers:
            worker.stop()
        for thread in threads:
            thread.join(timeout=STOP_TIMEOUT)
        stuck = [thread.name for thread in threads if thread.is_alive()]
        assert not stuck, f"worker threads still running {STOP_TIMEOUT}s after stop: {stuck}"


@contextmanager
def process_workers(
    address: tuple[str, int] | str,
    n: int,
    *worker_args: str,
    cache: str | os.PathLike | None = None,
) -> Iterator[list[subprocess.Popen]]:
    """Run ``n`` ``python -m repro.cli worker --connect HOST:PORT`` processes.

    ``address`` is ``(host, port)`` or ``"host:port"``.  Nothing needs
    to listen there yet: a worker retries its connect for about 10 s.
    ``worker_args`` are appended to the ``worker`` verb (e.g.
    ``"--stream-threshold", "0"``), and ``cache`` becomes the global
    ``--cache-dir``.  Each process gets ``src/`` on ``PYTHONPATH`` and
    ``OPENBLAS_NUM_THREADS=1``: workers sharing one machine split its
    cores, so each runs BLAS on one thread.  On exit every process is
    terminated and reaped.
    """
    if not isinstance(address, str):
        address = f"{address[0]}:{address[1]}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    command = [sys.executable, "-m", "repro.cli"]
    if cache is not None:
        command += ["--cache-dir", os.fspath(cache)]
    command += ["worker", "--connect", address, *worker_args]
    processes: list[subprocess.Popen] = []
    try:
        for _ in range(n):
            processes.append(subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL))
        yield processes
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            try:
                process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
