"""Independent tasks run side by side in forked children, the OpenBLAS
this process has loaded, and its C heap.

`fork_map(fn, tasks)` gives `[fn(task) for task in tasks]`.  Where more than
one CPU is usable it deals the tasks round-robin to one worker per CPU (at
most one per task): the first worker is this process, each other one a child
made with `os.fork`, which inherits the tasks and `fn` as they stand and
sends its results back through a pipe, pickled.  Results are therefore bit
for bit what the calls give in this process.  Its callers: the lockstep
training parts (`detector.train_many`), the four rankers of a consensus and
of `ddsids select --method all` (`evalcli._rankings`), the scenario chains
of `evalcli.build_cache` (simulate, meter, label, write) and the flow reads
of `ddsids preprocess`, and the train/test pair writer.  None of these runs
inside another, so nothing nests a fork; a `fork_map` inside a child would
run its tasks in turn there.
Children are processes rather than threads because these stages make many
small numpy calls and much Python work, which the interpreter lock would
serialise.

For the length of the forked section OpenBLAS is held at one thread in this
process and in the children (`one_blas_thread`): its worker threads would
otherwise spin on the cores the workers need whenever a product crosses its
threading threshold.  `ddsids select` holds it there for its one ranker too,
which would otherwise thread against whatever else keeps a core busy.

`trim_heap()` hands the free pages of the C heap back to the OS.  glibc
keeps a freed block resident until the free space at the heap's top exceeds
a trim threshold, which it raises to twice the largest mmap'd block freed so
far, so what a finished stage leaves resident depends on the sizes and order
of everything freed before it.  `evalcli` trims at the end of every pipeline
stage and every command, so that the next one's peak does not sit on that
remainder.  `pin_mmap_threshold()` fixes glibc's mmap threshold, the size
from which a block gets its own mapping, which glibc otherwise raises to the
largest mmap'd block freed so far: pinned before the first stage, where a
block of a given size lives no longer depends on what was freed before it.
"""

from __future__ import annotations

import ctypes
import os
import pickle
from contextlib import contextmanager
from typing import Callable, Sequence

# The calls of the OpenBLAS the numpy wheels bundle, then of a plain build.
OPENBLAS_CORENAME = ("scipy_openblas_get_corename64_", "openblas_get_corename")
OPENBLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")

# mallopt's parameter number for the mmap threshold in glibc's malloc.h,
# and the threshold pinned: blocks below it come from the heap, larger ones
# get their own mapping, which goes back to the OS when freed.  Measured on
# the benchmark: at 512 KiB and below, cli-chain's peak no longer moves with
# the checkout path (at 1 MiB and up, and unpinned, it jumps 4-8 MB on some
# paths); below 512 KiB the page faults of fresh mappings cost run time.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 512 << 10

# Set in a forked child, so that it runs any nested fork_map in turn.
_in_child = False


def openblas_call(symbols: Sequence[str], restype=ctypes.c_int, argtypes=()):
    """The first of `symbols` that the OpenBLAS this process has loaded
    exports, as a ctypes function; None where no loaded library has one.  The
    library is found by path in /proc/self/maps and opened only if already
    loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except (OSError, AttributeError):  # not loaded, or no RTLD_NOLOAD on this platform
            continue
        for symbol in symbols:
            call = getattr(lib, symbol, None)
            if call is not None:
                call.argtypes, call.restype = list(argtypes), restype
                return call
    return None


def trim_heap() -> None:
    """glibc's `malloc_trim(0)`: every free page of the C heap goes back to
    the OS.  Nothing where the C library has no such call."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):  # no C library by that name, or no malloc_trim in it
        return
    trim(0)


def pin_mmap_threshold() -> None:
    """glibc's `mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)`, which also
    ends glibc's own moving of the threshold.  Nothing where the C library has
    no such call."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library by that name, or no mallopt in it
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def openblas_core() -> str | None:
    """The CPU kernel set of the loaded OpenBLAS, as the library names it;
    None where no loaded library tells."""
    corename = openblas_call(OPENBLAS_CORENAME, restype=ctypes.c_char_p)
    return None if corename is None else corename().decode()


@contextmanager
def one_blas_thread():
    """OpenBLAS held at one thread for the block, then set back to the
    count it had; nothing where no loaded OpenBLAS has both calls."""
    get_threads = openblas_call(OPENBLAS_GET_THREADS)
    set_threads = openblas_call(OPENBLAS_SET_THREADS, restype=None, argtypes=[ctypes.c_int])
    if get_threads is None or set_threads is None:
        yield
        return
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform does not say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def fork_map(fn: Callable, tasks: Sequence) -> list:
    """`[fn(task) for task in tasks]`, the tasks spread over the usable CPUs.

    Task i runs in worker i % workers, where workers is the smaller of the
    task count and `usable_cpus()`; worker 0 is this process and runs first.
    With one worker, no `os.fork`, or inside a child, the tasks run in turn
    here.  An exception a task raises in a child is raised here with its type
    and message (a RuntimeError with its text if it does not survive
    pickling); a child that ends without sending its results is a
    RuntimeError naming it.  Every child is reaped before this returns or
    raises, and one still running when this raises is killed first.
    """
    tasks = list(tasks)
    workers = min(len(tasks), usable_cpus())
    if workers < 2 or _in_child or not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    results: list = [None] * len(tasks)
    children: list[tuple[int, int, range]] = []  # (pid, read end of its pipe, its task indices)
    reaped: set[int] = set()
    with one_blas_thread():
        try:
            for w in range(1, workers):
                indices = range(w, len(tasks), workers)
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
                    raise
                if pid == 0:
                    os.close(read_end)
                    _serve(fn, [tasks[i] for i in indices], write_end)
                os.close(write_end)
                children.append((pid, read_end, indices))
            for i in range(0, len(tasks), workers):
                results[i] = fn(tasks[i])
            for pid, read_end, indices in children:
                with os.fdopen(read_end, "rb", closefd=False) as fh:
                    data = fh.read()
                status = os.waitpid(pid, 0)[1]
                reaped.add(pid)
                for i, result in zip(indices, _received(pid, data, status)):
                    results[i] = result
        finally:
            for pid, read_end, _ in children:
                if pid not in reaped:
                    import signal  # only a failed fork_map needs it; importing it costs start-up time

                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:  # it has exited and waits to be reaped
                        pass
                    os.waitpid(pid, 0)
                os.close(read_end)
    return results


def _serve(fn, tasks, write_end: int) -> None:
    """A child's whole life: run its tasks, send the pickled outcome, and
    leave by `os._exit`, so nothing the parent buffered is written twice and
    no cleanup of the parent's runs here."""
    global _in_child
    _in_child = True
    status = 1
    try:
        try:
            payload = pickle.dumps((True, [fn(task) for task in tasks], None), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # the parent raises it again
            payload = _pickled_error(exc)
        with os.fdopen(write_end, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _pickled_error(exc: Exception) -> bytes:
    """(False, exception, traceback text), or (False, its text, traceback
    text) for an exception that does not survive a pickle round trip."""
    import traceback  # only a failing child needs it; importing it costs start-up time

    trace = "".join(traceback.format_exception(exc))
    try:
        payload = pickle.dumps((False, exc, trace), pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps((False, f"{type(exc).__name__}: {exc}", trace), pickle.HIGHEST_PROTOCOL)


def _received(pid: int, data: bytes, status: int) -> list:
    """The results a child sent, or the error it sent raised again."""
    try:
        ok, outcome, trace = pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"forked worker {pid} ended without sending its results ({how})") from None
    if ok:
        return outcome
    cause = RuntimeError(f"in forked worker {pid}:\n{trace}")
    if isinstance(outcome, str):
        raise RuntimeError(outcome) from cause
    raise outcome from cause
