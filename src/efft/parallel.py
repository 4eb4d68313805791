"""Worker pool that runs the transform stages as flat batches of chunks.

Every stage is one parallel_for over a list of independent chunks: the
scatter chunks, the leaf calls, and then one batch per merge level.  The
workers of a batch (the calling thread plus T-1 pool threads) claim chunk
indices from the shared batch one at a time until none is left, so a slow
chunk never holds up the others.  parallel_for returns, or raises the
first error a chunk raised, only once every chunk has finished: a failed
batch leaves nothing still writing into the caller's buffers.

Correctness of client code must not depend on which worker runs which
chunk; the stages only ever write disjoint buffer regions, so results are
identical under any schedule.

Every stage cuts its work with blocks, by a chunk size and never by the
worker count, so a plan's chunks are the same at any T and the claiming
above does the balancing.  BLOCK, 2^17 float32 elements (512 KiB), is the
one size constant of the stages: the most data one chunk of a pass over
memory moves.  A scatter chunk moves at most BLOCK elements, a merge piece
holds at most BLOCK // 8 coefficient pairs, because each pair reads and
writes 8 floats, and a leaf call transforms at least one and at most
BLOCK // (4m) bins of m, because each bin reads m floats, writes and
rereads a lane of m+2 and writes m.
On a Xeon with a 2 MiB L2, scatter of a 2^22 signal into 16 bins at T=1
took 7.1-7.6 ms with blocks of 2^16 to 2^18 elements, 12.9 ms at 2^19 and
17.6 ms at 2^20.
"""

import threading

from .errors import AllocationFailure

BLOCK = 1 << 17


class WorkerPool:
    """A fixed set of workers executing one parallel_for batch at a time."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        self.workers = workers
        self._cv = threading.Condition()
        self._chunks = []
        self._body = None
        self._next = 0
        self._unfinished = 0
        self._error = None
        self._shutdown = False
        self._local = threading.local()
        self._threads = []
        try:
            for slot in range(workers - 1):
                t = threading.Thread(
                    target=self._thread_main, args=(slot,),
                    name=f"efft-worker-{slot}", daemon=True,
                )
                t.start()
                self._threads.append(t)
        except (RuntimeError, MemoryError) as exc:
            self.shutdown()
            raise AllocationFailure(
                f"could not start worker thread {slot + 1} of {workers - 1}: {exc}"
            ) from exc

    def current_slot(self) -> int:
        """Stable worker index of the calling thread, in [0, workers).

        Pool threads occupy slots 0..workers-2; any other thread (the
        handle's current owner) maps to the last slot.
        """
        return getattr(self._local, "slot", self.workers - 1)

    def parallel_for(self, chunks, body) -> None:
        """Run body(*chunk) for every chunk; return once all have finished.

        If chunks raised, the first error is re-raised after the last chunk
        has finished.  With one worker the calling thread runs the chunks
        inline, in order.  The pool runs one batch at a time, so a body must
        not call parallel_for, and neither may a second thread while a batch
        runs; either raises RuntimeError.
        """
        chunks = list(chunks)
        with self._cv:
            if self._body is not None:
                raise RuntimeError("parallel_for is already running on this pool")
            self._chunks, self._body = chunks, body
            self._next, self._unfinished, self._error = 0, len(chunks), None
            self._cv.notify_all()
        self._work()
        with self._cv:
            while self._unfinished:
                self._cv.wait()
            error = self._error
            self._chunks, self._body, self._error = [], None, None
        if error is not None:
            raise error

    def shutdown(self) -> None:
        with self._cv:
            self._shutdown = True
            self._cv.notify_all()
        for t in self._threads:
            t.join()
        self._threads = []

    def _thread_main(self, slot: int) -> None:
        self._local.slot = slot
        while True:
            with self._cv:
                while self._next >= len(self._chunks) and not self._shutdown:
                    self._cv.wait()
                if self._shutdown:
                    return
            self._work()

    def _work(self) -> None:
        """Claim and run chunks of the current batch until none is left."""
        while True:
            with self._cv:
                i = self._next
                if i >= len(self._chunks):
                    return
                self._next = i + 1
                body, chunk = self._body, self._chunks[i]
            error = None
            try:
                body(*chunk)
            except BaseException as exc:  # re-raised by parallel_for
                error = exc
            with self._cv:
                if self._error is None:
                    self._error = error
                self._unfinished -= 1
                if not self._unfinished:
                    self._cv.notify_all()


def blocks(start: int, stop: int, step: int, size: int):
    """Cut [start, stop) into runs of `size` rounded down to whole steps.

    Returns (lo, hi) pairs covering the range exactly.  Every run holds at
    least one step, every boundary is a multiple of step away from start,
    and only the last run may be shorter.
    """
    run = max(1, size // step) * step
    return [(lo, min(lo + run, stop)) for lo in range(start, stop, run)]
