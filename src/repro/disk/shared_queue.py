"""Cross-collective IOP disk scheduling: one shared sorted queue per drive.

The paper's argument is that the I/O processor, which knows every outstanding
request, should order disk traffic — not the compute nodes, and not each
collective for itself.  With one collective at a time, disk-directed I/O's
per-collective presorted block list *is* global knowledge.  Under a service
workload (several collectives in flight, :mod:`repro.workload`) it is not:
each session presents its own sorted stream, and the drive sees K interleaved
streams — exactly the seek thrash the presort was meant to remove.

:class:`SharedDiskQueue` restores the invariant at the right layer.  It is
IOP software sitting in front of one drive: *all* active sessions enqueue
their work (tagged with a session id and a physical address) into one queue,
and a small pool of worker processes services that queue in the order a
pluggable policy chooses — a CSCAN elevator by default, the same policy
objects :mod:`repro.disk.scheduler` provides for the drive's internal queue.
The drive itself stays FCFS with a tiny queue depth; the *IOP* decides the
order, which is the disk-directed philosophy extended across collectives.

Two interfaces, one queue:

* :meth:`read` / :meth:`write` / :meth:`write_tracked` mirror
  :class:`~repro.disk.drive.Disk`'s API, so a queue can stand in for the raw
  drive anywhere a protocol holds a "disk handle" (traditional caching's
  block cache routes its fetches and write-backs through these).
* :meth:`submit` schedules an arbitrary per-block *job* — a generator
  function run by a worker when the block's turn comes.  Disk-directed I/O
  submits one job per file block (read-and-deliver, or gather-and-write), so
  the elevator sees every remaining block of every active collective, not
  just the handful currently buffered.

Fairness: CSCAN's wrap-around guarantees every pending job is reached within
one sweep, so no session starves however unlucky its block addresses are.
"""

from repro.disk.drive import READ, WRITE
from repro.disk.scheduler import make_scheduler
from repro.sim.events import Event, chain


class _QueuedJob:
    """One schedulable unit: a physical address, a session tag, and a body."""

    __slots__ = ("lbn", "op", "session_id", "run", "done", "submit_time")

    def __init__(self, lbn, op, session_id, run, done, submit_time):
        self.lbn = lbn
        self.op = op
        self.session_id = session_id
        self.run = run
        self.done = done
        self.submit_time = submit_time


def check_workers(workers):
    """Raise ``ValueError`` unless a shared queue can run *workers* jobs."""
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")


class SharedDiskQueue:
    """IOP-level request queue shared by every session using one drive.

    ``policy`` names a :mod:`repro.disk.scheduler` policy (``cscan`` by
    default); ``workers`` bounds how many jobs are in service at once — the
    IOP's buffer budget for this drive, two in the paper's disk-directed
    design.  Jobs not yet in service are *re-sortable*: the policy re-selects
    against the drive's current head position each time a worker frees up, so
    late-arriving sessions merge into the sweep instead of appending.
    """

    def __init__(self, env, disk, policy="cscan", workers=2):
        check_workers(workers)
        self.env = env
        self.disk = disk
        self.policy = make_scheduler(policy) if isinstance(policy, str) else policy
        self.workers = workers
        self._pending = []
        self._busy = 0
        self._writes_outstanding = 0   # write jobs pending or in service here
        self._work = None
        self._flush_waiters = []
        self._dispatched = 0
        #: seconds each session's jobs spent waiting in THIS queue before a
        #: worker took them (session id -> seconds).  The drive's own
        #: ``disk_queue_wait`` only covers its internal queue, which stays
        #: shallow under shared scheduling — this is where the waiting
        #: actually happens; dropped by :meth:`release_session`.
        self.session_waits = {}
        for _ in range(workers):
            env.process(self._worker(self))

    # -- introspection ---------------------------------------------------------
    @property
    def queue_depth(self):
        """Jobs waiting for a worker (excluding the ones in service)."""
        return len(self._pending)

    @property
    def in_service(self):
        """Jobs currently being run by a worker."""
        return self._busy

    @property
    def dispatched(self):
        """Total jobs handed to workers over this queue's lifetime."""
        return self._dispatched

    # -- job submission --------------------------------------------------------
    def submit(self, lbn, job, session_id=None, op=READ):
        """Schedule *job* (a generator function) to run at *lbn*'s turn.

        Returns an event that succeeds with the job's return value once a
        worker has run it to completion.  ``op`` only matters for
        :meth:`flush` accounting (``WRITE`` jobs are tracked until done).
        """
        done = Event(self.env)
        self._pending.append(
            _QueuedJob(lbn, op, session_id, job, done, self.env.now))
        if op == WRITE:
            self._writes_outstanding += 1
        self._kick()
        return done

    def session_wait_seconds(self, session_id):
        """Seconds *session_id*'s jobs have waited in this queue so far."""
        return self.session_waits.get(session_id, 0.0)

    def release_session(self, session_id):
        """Drop per-session accounting once the session's result is final."""
        self.session_waits.pop(session_id, None)

    # -- Disk-compatible request interface -------------------------------------
    def read(self, lbn, n_sectors, tag=None, session_id=None):
        """Submit a read; the event fires when the data is at the IOP."""
        def job():
            value = yield self.disk.read(lbn, n_sectors, tag=tag,
                                         session_id=session_id)
            return value
        return self.submit(lbn, job, session_id=session_id, op=READ)

    def write(self, lbn, n_sectors, tag=None, session_id=None):
        """Submit a write; the event fires when the drive accepts the data."""
        def job():
            value = yield self.disk.write(lbn, n_sectors, tag=tag,
                                          session_id=session_id)
            return value
        return self.submit(lbn, job, session_id=session_id, op=WRITE)

    def write_tracked(self, lbn, n_sectors, tag=None, session_id=None):
        """Submit a write; returns ``(accepted, on_media)`` events.

        Mirrors :meth:`repro.disk.drive.Disk.write_tracked`: ``on_media`` is a
        placeholder chained to the drive's media-completion event once the
        write is dispatched, so per-session write-behind draining works
        unchanged through the shared queue.
        """
        media = Event(self.env)

        def job():
            accepted, on_media = self.disk.write_tracked(
                lbn, n_sectors, tag=tag, session_id=session_id)
            chain(on_media, media)
            value = yield accepted
            return value
        return self.submit(lbn, job, session_id=session_id, op=WRITE), media

    def flush(self):
        """Event firing once every write queued *here* has reached the media.

        Waits for pending/in-service write jobs to drain, then for the
        drive's own write buffer (:meth:`Disk.flush`).
        """
        done = Event(self.env)
        self.env.process(self._flush_process(done))
        return done

    def _flush_process(self, done):
        while self._writes_outstanding > 0:
            waiter = Event(self.env)
            self._flush_waiters.append(waiter)
            yield waiter
        yield self.disk.flush()
        if not done.triggered:
            done.succeed()

    # -- the worker pool -------------------------------------------------------
    def _kick(self):
        if self._work is not None and not self._work.triggered:
            self._work.succeed(self)
            self._work = None

    @staticmethod
    def _worker(queue):
        """One pool worker: rounds of :meth:`_work_round`, parked between.

        The workers park on one shared wake event, which :meth:`_kick`
        succeeds with the queue; a parked worker holds only that event, so
        an idle queue (and the drive behind it) is no reference cycle.
        """
        wake = yield from queue._work_round()
        del queue
        while True:
            wake = yield from (yield wake)._work_round()

    def _work_round(self):
        """Run pending jobs until none is left; returns the wake event."""
        while self._pending:
            index = self.policy.select(self._pending, self.disk.head_lbn_estimate)
            job = self._pending.pop(index)
            if job.session_id is not None:
                waits = self.session_waits
                waits[job.session_id] = waits.get(job.session_id, 0.0) \
                    + (self.env.now - job.submit_time)
            self._busy += 1
            self._dispatched += 1
            value = yield from job.run()
            self._busy -= 1
            if job.op == WRITE:
                self._writes_outstanding -= 1
                if self._writes_outstanding == 0:
                    waiters, self._flush_waiters = self._flush_waiters, []
                    for waiter in waiters:
                        if not waiter.triggered:
                            waiter.succeed()
            if not job.done.triggered:
                job.done.succeed(value)
        work = self._work
        if work is None or work.triggered:
            work = self._work = Event(self.env)
        return work
