"""External solver execution with CPU-time cutoffs.

Solvers are launched as child processes under an RLIMIT_CPU matching the
cutoff, with a 2x wall-clock backstop against hung processes. The runtime
charged is the child's CPU time (user + system) from wait4 rusage. Result
convention: exit code 10 means sat, 20 means unsat; otherwise the output is
scanned for "s SATISFIABLE" / "s UNSATISFIABLE". Abnormal termination is a
crash with the measured time; exceeding the cutoff is a timeout recorded at
the cutoff.
"""

from __future__ import annotations

import math
import os
import resource
import shlex
import signal
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor

from .runtimes import RunRecord, RuntimeMatrix, SolverDescriptor, check_solver_ids

WALL_CLOCK_FACTOR = 2.0


class SpawnFailure(RuntimeError):
    """The solver process could not be started at all."""


def worker_count() -> int:
    env = os.environ.get("ZF_WORKERS", "")
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"ZF_WORKERS must be a positive integer, got {env!r}")
    return int(env)


def _parse_status(returncode: int, output_path: str) -> str | None:
    if returncode == 10:
        return "sat"
    if returncode == 20:
        return "unsat"
    try:
        with open(output_path, "r", errors="replace") as fh:
            for line in fh:
                if line.startswith("s SATISFIABLE"):
                    return "sat"
                if line.startswith("s UNSATISFIABLE"):
                    return "unsat"
    except OSError:
        pass
    return None


def instance_id(instance_path) -> str:
    """The id a run on this instance file is recorded under: its file name
    without the extension."""
    return os.path.splitext(os.path.basename(str(instance_path)))[0]


def run_external(descriptor: SolverDescriptor, instance_path: str,
                 cutoff_seconds: float) -> RunRecord:
    """Run one solver on one instance under the CPU-time cutoff."""
    if not descriptor.command:
        raise SpawnFailure(f"solver {descriptor.id!r} has no command template")
    argv = [
        part.format(instance=str(instance_path))
        for part in shlex.split(descriptor.command)
    ]
    cpu_limit = int(math.ceil(cutoff_seconds)) + 1

    def set_limits():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_limit, cpu_limit + 2))

    iid = instance_id(instance_path)
    with tempfile.NamedTemporaryFile(prefix="zfolio-run-", suffix=".out") as out:
        try:
            proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.DEVNULL, preexec_fn=set_limits
            )
        except OSError as exc:
            raise SpawnFailure(f"could not start {argv[0]!r}: {exc}") from exc

        killed_by_wall = threading.Event()

        def kill():
            killed_by_wall.set()
            try:
                proc.kill()
            except ProcessLookupError:
                pass

        timer = threading.Timer(WALL_CLOCK_FACTOR * cutoff_seconds + 5.0, kill)
        timer.start()
        try:
            _, wait_status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        cpu = rusage.ru_utime + rusage.ru_stime

        if killed_by_wall.is_set() or cpu > cutoff_seconds:
            return RunRecord(descriptor.id, iid, cutoff_seconds, "timeout")
        if proc.returncode < 0:  # killed by a signal
            if -proc.returncode == signal.SIGXCPU:
                return RunRecord(descriptor.id, iid, cutoff_seconds, "timeout")
            return RunRecord(descriptor.id, iid, cpu, "crash")
        status = _parse_status(proc.returncode, out.name)
        if status is None:
            return RunRecord(descriptor.id, iid, cpu, "crash")
        return RunRecord(descriptor.id, iid, min(cpu, cutoff_seconds), status)


def collect_runtimes(descriptors, instance_paths, cutoff_seconds: float) -> RuntimeMatrix:
    """Run every solver on every instance, worker_count() at a time. Two
    instance paths with one id, or two solvers with one id, are refused
    before any solver runs."""
    paths = {}
    for path in instance_paths:
        iid = instance_id(path)
        if iid in paths:
            raise ValueError(f"instances {paths[iid]} and {path} share the id {iid!r}")
        paths[iid] = path
    check_solver_ids(descriptors)
    matrix = RuntimeMatrix(cutoff_seconds)
    jobs = [(d, p) for d in descriptors for p in instance_paths]
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        matrix.add(*pool.map(lambda job: run_external(*job, cutoff_seconds), jobs))
    return matrix
