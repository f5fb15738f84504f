"""How work leaves the command process: forked workers, the OpenBLAS
thread pin and the count of CPUs a command may use.

`map_points` runs a task over points on plain `os.fork` workers, each
at one OpenBLAS thread (`one_blas_thread`), and `usable_cpus` is the
worker count a command asks for. No module of the package imports
`multiprocessing` or `concurrent.futures`, and `ctypes` is imported on
the first pin, not with this module.
"""

import os
import pickle
from contextlib import contextmanager

from .errors import WorkerError

# OpenBLAS's thread-count functions, under the names its builds export: the
# scipy-openblas wheels of numpy 2, the 64-bit-int builds of numpy 1
# wheels, and a plain system build.
_BLAS_THREAD_FUNCTIONS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, which honours
    `taskset`), or the machine's count where there is no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None
    when this process has no OpenBLAS mapped (another BLAS, or no
    /proc/self/maps). `ctypes` is imported here, on the first call, not
    with the module."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None
    libraries = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    for path in libraries:
        library = ctypes.CDLL(path)
        for name in _BLAS_THREAD_FUNCTIONS:
            get = getattr(library, name.format("get"), None)
            set_ = getattr(library, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the block at one OpenBLAS thread, then give the caller's count
    back, also when the block raises. Yields whether it could pin:
    False without OpenBLAS thread functions (another BLAS, or no
    /proc/self/maps), and the block then runs at whatever count it had.

    A block under the pin touches only the calling thread's GEMM buffers;
    a second thread's would be allocated on the first big product, and a
    forked worker inherits the pinned count."""
    blas = _blas_threads()
    if blas is None:
        yield False
        return
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(threads)


def map_points(task, points: list, jobs: int) -> dict:
    """`task(point)` for each point, keyed by point.

    With jobs > 1, `min(jobs, len(points))` workers are forked from this
    process, and worker j runs `points[j::jobs]`. A worker inherits `task`
    and all it reads copy-on-write; only its pickled values, or its error,
    cross its pipe back. The forks run under `one_blas_thread`, so each
    worker inherits one OpenBLAS thread (2 workers at 2 threads each on 2
    cores ran 3x slower than serially; a worker that set it itself started
    a spinning pool thread), and this process has its count back after.
    Where it cannot pin (so no /proc/self/maps and no fork) the points run
    here. A worker's error is raised here with its own type; a worker that
    dies raises `WorkerError`. Every worker is reaped before this returns
    or raises. A profiler or tracer in this process sees only the work
    done here, not the workers'.
    """
    jobs = min(jobs, len(points))
    if jobs <= 1:
        return {point: task(point) for point in points}
    with one_blas_thread() as pinned:
        if not pinned:
            return {point: task(point) for point in points}
        workers = []  # (pid, the read end of its pipe)
        try:
            for j in range(jobs):
                workers.append(_fork_worker(task, points[j::jobs]))
            replies = [pipe.read() for _, pipe in workers]
        finally:
            for _, pipe in workers:
                pipe.close()  # a worker still writing then fails instead of blocking
            statuses = [os.waitpid(pid, 0)[1] for pid, _ in workers]
    values = {}
    for j, (status, reply) in enumerate(zip(statuses, replies)):
        if status != 0:
            raise WorkerError("a worker process died before it returned its results")
        done, result = pickle.loads(reply)
        if not done:
            raise result
        values.update(zip(points[j::jobs], result))
    return values


def _fork_worker(task, points: list):
    """Fork a worker that pickles `(True, values)` or `(False, error)` into
    a pipe and exits 0, or 1 if it cannot; return its pid and read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the worker: it never returns into the caller
        status = 1
        try:
            try:
                reply = (True, [task(point) for point in points])
            except Exception as exc:
                reply = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")
