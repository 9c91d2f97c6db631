"""A code's weight distribution counted over ``--workers`` processes.

:func:`weight_distribution` splits the code's words into index ranges,
forks one child per range after the first, and counts the first range in
this process; each child counts its range with the same kernel,
``codes.rank_counts``, and answers on a pipe. A child that ends without
its counts is reported while this process still counts. Only ``count``
and ``wd`` load this module.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal

from . import codes
from .errors import CheckFailed

# Fewest words worth a process of their own. Making a pipe and forking
# take about 0.3 ms in the parent, and a child that counts one word has
# answered and been reaped about 2.3-3 ms after the fork (medians of 200;
# 2 vCPU, Python 3.11). A child starts with an empty lead memo, and so
# started the kernel counts half a census at 3.1-15.6 M words/s (q=13
# t=2 to q=2 t=4, each whole coset of W by one reduction, best of 5
# processes); with a warm memo, 25-260 M words/s. So a child's start-up
# costs as much as counting 7,000-47,000 words cold, and a range of 2^15
# words (2.1-10.6 ms cold) barely pays for it: the q=2, t=4 census still
# splits in two and now takes 74.6 ms with --workers 2 against 69.2 ms
# with one (medians of 11 runs), while the q=3, t=3 and q=13, t=2
# censuses stay in one process. The constant bounds words, not
# reductions, and is kept.
MIN_WORDS_PER_PROCESS = 2 ** 15


def _index_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    """Split [0, total) into one range per process worth starting: no more
    than requested, than CPUs this process may run on, or than ranges of
    MIN_WORDS_PER_PROCESS indices each. One range where os.fork is
    missing."""
    if not hasattr(os, "fork"):
        return [(0, total)]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    parts = max(1, min(workers, cpus, total // MIN_WORDS_PER_PROCESS))
    step = -(-total // parts)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _fork_counter(code, start: int, stop: int, guard) -> tuple[int, int]:
    """Fork a child that counts words start..stop-1 and exits; return its
    pid and the read end of the pipe it answers on. The child writes its
    counts as a JSON list and exits 0, or writes the exception it raised,
    pickled, and exits 1. The CLI starts no threads, so the child inherits
    no lock held by another thread."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 2  # nothing sent: the parent reports the status
    try:
        os.close(read)
        # a SIGTERM to the child ends it, as the parent reports, instead
        # of raising through the handler cli.main installed
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            body, sent = json.dumps(
                codes.rank_counts(code, start, stop, guard)).encode(), 0
        except BaseException as exc:  # re-raised by the parent
            import pickle
            body, sent = pickle.dumps(exc), 1
        with open(write, "wb") as pipe:
            pipe.write(body)
        status = sent
    finally:
        os._exit(status)  # never return into the parent's stack


def _child_counts(pid: int, read: int) -> list[int]:
    """Read a child's answer to EOF, reap it, and return its counts or
    raise the exception it sent; CheckFailed if it sent neither."""
    with open(read, "rb", closefd=False) as pipe:
        body = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status == 0:
        return json.loads(body)
    if status == 1:
        import pickle
        raise pickle.loads(body)
    how = f"signal {-status}" if status < 0 else f"exit code {status}"
    raise CheckFailed(f"--workers process {pid} ended by {how} and sent "
                      "no counts")


@contextlib.contextmanager
def _watching(children: list[tuple[int, int]]):
    """Handle SIGCHLD while the block runs: a child that has ended by a
    nonzero exit code or a signal raises what _child_counts raises."""
    if not (children and hasattr(os, "waitid")):
        yield
        return

    def check(*_):
        for pid, read in children:
            # a check that this one interrupted may have reaped the child
            with contextlib.suppress(ChildProcessError):
                ended = os.waitid(os.P_PID, pid,
                                  os.WEXITED | os.WNOHANG | os.WNOWAIT)
                if ended and (ended.si_code != os.CLD_EXITED
                              or ended.si_status):
                    _child_counts(pid, read)  # raises

    previous = signal.signal(signal.SIGCHLD, check)
    try:
        check()  # one may have ended before the handler was set
        yield
    finally:
        signal.signal(signal.SIGCHLD, previous)


def weight_distribution(code, workers: int, guard) -> codes.WeightDistribution:
    """codes.weight_distribution, split by index range over up to
    ``workers`` processes: one child is forked per range after the first,
    before counting starts, and this process counts the first range
    itself, watching the children (see :func:`_watching`)."""
    (lo, hi), *rest = _index_ranges(code.size, workers)
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for start, stop in rest:
            children.append(_fork_counter(code, start, stop, guard))
        with _watching(children):
            parts = [codes.rank_counts(code, lo, hi, guard)]
        parts += [_child_counts(pid, read) for pid, read in children]
    finally:
        # On every exit path: kill and reap each child not reaped yet.
        for pid, read in children:
            os.close(read)
            with contextlib.suppress(ChildProcessError):  # reaped already
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    counts = tuple(sum(column) for column in zip(*parts))
    return codes.WeightDistribution(code.field.q, code.t, code.k, counts)
