"""Independent jobs on every CPU the process may use.

`fork_map` is the package's one worker pool: `training.train_ensemble`
trains partitions with it and `metrics.evaluate_frames` scores blocks of
frames with it. The caller is worker 0 and runs its own share of the jobs;
workers 1..n-1 are processes forked first, so they start with the jobs,
the function and everything the caller built instead of a fresh import,
and only results cross a pipe. Each has its own interpreter lock, so
workers do not take turns on one, as partition threads did in
`adam_step`. A worker runs jobs i, i + n, i + 2n, ... in order, so each
job gets the bits it would get in a plain loop.

Forking after BLAS calls is safe: OpenBLAS's fork handler joins its
thread pool first, so each helper starts from a single-threaded process
and Python 3.12+ has no multi-threaded fork to warn about. No other
thread may run while a map forks.
"""

from __future__ import annotations

import multiprocessing
import os

from .errors import WorkerLost


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (`taskset -c 0` leaves 1 of 2), else `os.cpu_count()`."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper(fn, jobs: list, conn) -> None:
    """Body of a forked helper: send the list of `fn`'s results on
    `jobs`, or the exception that stopped it."""
    try:
        conn.send([fn(job) for job in jobs])
    except Exception as exc:  # the caller raises it; an interrupt just ends the helper
        conn.send(exc)
    finally:
        conn.close()


def fork_map(fn, jobs, workers: int) -> list:
    """`[fn(job) for job in jobs]`, job i run by worker i % workers.

    The caller runs worker 0's jobs; workers 1..n-1 are "fork" processes,
    started before the caller's first job. One worker, or no "fork" start
    method, is a plain loop that starts no process. After each of its own
    jobs the caller reads every helper that has answered, so a helper's
    failure ends the map within one caller job; then it waits for the rest
    in worker order. The first failure in worker order is raised, and a
    helper that exits without answering raises WorkerLost. No helper
    outlives the call.
    """
    jobs = list(jobs)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(job) for job in jobs]
    ctx = multiprocessing.get_context("fork")
    results = [None] * len(jobs)
    helpers, pending = [], {}  # pending: read end -> (worker, process)

    def collect(ready):
        for recv in ready:
            w, proc = pending.pop(recv)
            try:
                answer = recv.recv()
            except EOFError:
                proc.join()
                raise WorkerLost(f"worker {w} exited with code {proc.exitcode} "
                                 "before returning its results") from None
            if isinstance(answer, Exception):
                raise answer
            results[w::workers] = answer

    try:
        for w in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_helper, args=(fn, jobs[w::workers], send), daemon=True)
            proc.start()
            send.close()  # the helper holds the only write end, so its exit reads as EOF
            helpers.append((proc, recv))
            pending[recv] = (w, proc)
        for i in range(0, len(jobs), workers):
            results[i] = fn(jobs[i])
            collect([recv for recv in pending if recv.poll()])
        collect(list(pending))
    finally:
        for proc, recv in helpers:
            recv.close()
            proc.terminate()  # stops a helper still running when the caller failed
            proc.join()
    return results
