"""Supervised, crash-tolerant job execution for the experiment suite.

PR 2 made the *simulated* hardware fault-tolerant; this module does the
same for the harness that runs it.  Every suite entry becomes a
:class:`Job` moving through an explicit state machine::

    PENDING ──► RUNNING ──► DONE
       ▲           │
       └───────────┤  retry (deadline kill / crash, seeded backoff)
                   ├──► FAILED       (attempts or requeues exhausted)
                   └──► QUARANTINED  (poisoned input, e.g. corrupt cache)

and the pieces around it keep a run alive through the failures the
APEnet+ line of work treats as the norm at cluster scale:

* :class:`JobScheduler` — a worker **supervisor**: fork workers pull
  jobs one at a time over pipes and report heartbeats, job starts and
  completions on a **per-worker** result pipe — no channel is shared
  between workers, so a worker SIGKILLed mid-send can tear only its own
  pipe, never wedge the survivors (a shared ``multiprocessing.Queue``
  dies holding its write lock).  A worker that dies (SIGKILL, OOM) is
  reaped and its in-flight job is requeued on the survivors; a job that
  overruns its **deadline** gets its worker killed and is retried with
  an escalated deadline after a seeded-jitter exponential backoff.
  Payloads travel through atomically-written spill files, never through
  the pipe, so killing a worker can never tear a payload.
* :class:`Journal` — a crash-safe run journal: append-only JSONL
  (schema ``tca-bench-journal/1``), one fsync per record, with a reader
  that tolerates a torn final line.  ``tca-bench suite --resume RUN``
  replays it to re-execute only unfinished entries.

Determinism is preserved by construction: a job's payload depends only
on ``(entry, mode, seed)`` — per-entry seeds are derived, never shared —
so *where* and *how many times* a job runs cannot change its bytes.
The process-level chaos harness (:mod:`repro.faults.harness_chaos`)
proves it by SIGKILLing workers, forcing deadline overruns and
corrupting cache files mid-run, then asserting byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

from repro.bench.ioutil import atomic_write_text, fsync_file
from repro.errors import ConfigError

#: Version tag of each journal record (first field of every line).
JOURNAL_SCHEMA = "tca-bench-journal/1"

# -- the job state machine ------------------------------------------------------------

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"

JOB_STATES = (PENDING, RUNNING, DONE, FAILED, QUARANTINED)

#: Legal state transitions; anything else is a supervisor bug.
#: PENDING -> DONE covers cache hits and journal restores, where the
#: result exists before any worker runs.
TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    PENDING: (RUNNING, DONE, FAILED, QUARANTINED),
    RUNNING: (DONE, FAILED, PENDING, QUARANTINED),  # PENDING = requeue
    DONE: (),
    FAILED: (),
    QUARANTINED: (),
}

#: Retry/backoff defaults.  The backoff exists to spread retries of a
#: systemically-failing job, not to pace healthy runs, so it is short.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
DEFAULT_MAX_ATTEMPTS = 3
#: Worker deaths are not the job's fault, so they consume requeues (a
#: separate, larger budget) rather than attempts.
DEFAULT_MAX_REQUEUES = 5

#: Deadline defaults: generous multiples of the registry cost hint —
#: deadlines exist to catch *hangs*, not slow machines.
DEADLINE_FLOOR_S = 60.0
DEADLINE_FACTOR = 40.0

#: Supervisor timing.
HEARTBEAT_INTERVAL_S = 0.2
POLL_INTERVAL_S = 0.05


def backoff_delay(seed: int, entry: str, attempt: int,
                  base_s: float = BACKOFF_BASE_S,
                  cap_s: float = BACKOFF_CAP_S) -> float:
    """Seeded-jitter exponential backoff before retry ``attempt``.

    Deterministic in ``(seed, entry, attempt)`` — a resumed or replayed
    run waits exactly as long as the original — and bounded:
    ``0 < delay <= cap_s``.  The jitter keeps simultaneous retries of
    different entries from synchronizing (half the exponential term is
    fixed, half is scaled by a hash-derived uniform draw).
    """
    if attempt < 0:
        raise ConfigError(f"attempt must be >= 0, got {attempt}")
    digest = hashlib.sha256(
        f"backoff:{seed}:{entry}:{attempt}".encode("utf-8")).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return min(cap_s, base_s * (2.0 ** attempt)) * (0.5 + 0.5 * jitter)


def backoff_schedule(seed: int, entry: str, attempts: int,
                     base_s: float = BACKOFF_BASE_S,
                     cap_s: float = BACKOFF_CAP_S) -> List[float]:
    """The full deterministic retry schedule for one entry."""
    return [backoff_delay(seed, entry, i, base_s, cap_s)
            for i in range(attempts)]


def default_deadline_s(cost_s: float) -> float:
    """Deadline for an entry with the given registry cost hint."""
    return max(DEADLINE_FLOOR_S, cost_s * DEADLINE_FACTOR)


def lpt_shards(costs: Sequence[float], shards: int,
               tiebreak: Optional[Sequence[Any]] = None) -> List[List[int]]:
    """Deterministic longest-processing-time-first shard assignment.

    Items (identified by index into ``costs``) are assigned to the
    least-loaded shard in decreasing-cost order — the classic LPT
    heuristic, within 4/3 of the optimal makespan.  ``tiebreak`` (any
    per-item sortable key, defaulting to the index itself) makes the
    assignment a pure function of its inputs, so replayed and resumed
    runs shard identically.  Used both by the suite's entry partitioner
    (:func:`repro.bench.suite.partition`) and the multi-engine executor
    (:class:`repro.sim.executor.MultiEngineExecutor`).

    Returns ``shards`` index buckets (clamped to ``len(costs)`` so no
    bucket is empty unless there are no items at all).
    """
    count = len(costs)
    shards = max(1, min(shards, count) if count else 1)
    keys = tiebreak if tiebreak is not None else range(count)
    order = sorted(range(count), key=lambda i: (-costs[i], keys[i]))
    loads = [0.0] * shards
    buckets: List[List[int]] = [[] for _ in range(shards)]
    for i in order:
        target = min(range(shards), key=lambda s: (loads[s], s))
        buckets[target].append(i)
        loads[target] += costs[i]
    return buckets


@dataclass
class Job:
    """One suite entry moving through the supervised state machine."""

    name: str
    eid: str
    key: str
    mode: str
    seed: int
    cost_s: float = 0.1
    deadline_s: float = DEADLINE_FLOOR_S
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    max_requeues: int = DEFAULT_MAX_REQUEUES
    #: Chaos injection: sleep this long before attempt 0 runs (the
    #: harness's "hung experiment").
    hang_s: float = 0.0

    state: str = PENDING
    attempt: int = 0
    requeues: int = 0
    worker: Optional[int] = None
    not_before: float = 0.0        # monotonic instant gating reassignment
    assigned_at: Optional[float] = None
    payload_json: Optional[str] = None
    wall_s: float = 0.0
    start_off_ns: Optional[int] = None
    error: Optional[str] = None

    def transition(self, new_state: str) -> None:
        """Move to ``new_state``; illegal moves are supervisor bugs."""
        if new_state not in TRANSITIONS[self.state]:
            raise ConfigError(
                f"job {self.name}: illegal transition "
                f"{self.state} -> {new_state}")
        self.state = new_state

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED, QUARANTINED)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "eid": self.eid,
            "key": self.key,
            "state": self.state,
            "attempt": self.attempt,
            "requeues": self.requeues,
            "worker": self.worker,
            "wall_s": round(self.wall_s, 4),
            "error": self.error,
        }


# -- the crash-safe run journal -------------------------------------------------------

class Journal:
    """Append-only JSONL journal of one suite run, fsync'd per record.

    Line format: one JSON object per line, always carrying ``schema``
    and ``t`` (the record type).  The first record of a run is
    ``t="run"`` with the run header (run id, mode, seed, entry names
    and content keys, fingerprints); job transitions follow as
    ``t="job"``; a completed run ends with ``t="end"``.  ``t="done"``
    records carry the entry's full canonical payload text, so a resume
    can restore finished entries byte-identically even if the result
    cache has been lost or corrupted in the meantime.

    Appends are flushed and fsync'd one line at a time; a crash can
    therefore tear at most the final line, and :meth:`read` skips any
    line that does not parse.

    :meth:`record` is thread-safe: interleaving two half-written lines
    from concurrent appenders would tear *both* records, not just the
    crash-prone final one.
    """

    def __init__(self, path: Path, fh=None):
        self.path = Path(path)
        self._fh = fh or open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    # -- writing ---------------------------------------------------------

    @classmethod
    def create(cls, directory: Path, run_id: str,
               **header: Any) -> "Journal":
        """Start a fresh journal for ``run_id`` and write its header."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        journal = cls(cls.path_for(directory, run_id))
        journal.record("run", run_id=run_id, **header)
        return journal

    @classmethod
    def resume(cls, directory: Path, run_id: str) -> "Journal":
        """Reopen an existing journal for appending a resumed run."""
        path = cls.path_for(directory, run_id)
        if not path.exists():
            raise ConfigError(
                f"no journal for run {run_id!r} under {directory} "
                f"(expected {path})")
        journal = cls(path)
        journal.record("resume", run_id=run_id)
        return journal

    @staticmethod
    def path_for(directory: Path, run_id: str) -> Path:
        return Path(directory) / f"{run_id}.jsonl"

    def record(self, t: str, **fields: Any) -> None:
        """Append one fsync'd record; torn tails are the reader's job."""
        doc = {"schema": JOURNAL_SCHEMA, "t": t,
               "ts": round(time.time(), 3), **fields}
        line = json.dumps(doc, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            self._fh.write(line)
            fsync_file(self._fh)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- reading ---------------------------------------------------------

    @staticmethod
    def read(path: Path) -> List[Dict[str, Any]]:
        """Every parseable record, in order; torn/garbage lines skipped."""
        records: List[Dict[str, Any]] = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return records
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # torn append (crash mid-write)
            if isinstance(doc, dict) and doc.get("schema") == JOURNAL_SCHEMA:
                records.append(doc)
        return records

    @staticmethod
    def replay(records: Sequence[Dict[str, Any]]
               ) -> Tuple[Optional[Dict[str, Any]], Dict[str, str]]:
        """Fold a journal into (run header, finished name->payload_json).

        Only ``done`` records with an embedded payload count as
        finished — a job journalled as running when the process died is
        unfinished by definition and will be re-executed on resume.
        """
        header: Optional[Dict[str, Any]] = None
        done: Dict[str, str] = {}
        for rec in records:
            t = rec.get("t")
            if t == "run" and header is None:
                header = rec
            elif t == "job" and rec.get("state") == DONE:
                payload = rec.get("payload_json")
                if isinstance(payload, str):
                    done[rec["name"]] = payload
        return header, done


def new_run_id(mode: str, seed: int) -> str:
    """A human-sortable, collision-resistant run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    entropy = hashlib.sha256(os.urandom(16)).hexdigest()[:6]
    return f"{stamp}-{mode}-s{seed}-{os.getpid():x}{entropy}"


# -- the worker supervisor ------------------------------------------------------------

def _worker_main(wid: int, conn, results, runner, spill_dir: str,
                 origin_ns: Optional[int], heartbeat_s: float,
                 supervisor: int) -> None:  # pragma: no cover - child
    """Worker body: pull jobs off the pipe, spill payloads, report back.

    Runs in a forked child.  The parent owns interrupt handling, so
    SIGINT is ignored here (SIGTERM keeps its default: die promptly
    when the supervisor shuts the pool down).  ``results`` is this
    worker's **private** pipe to the supervisor: all messages on it are
    small fixed tuples — payloads go through atomically written spill
    files — and nothing is shared with sibling workers, so dying
    mid-send can tear at most this one channel.  The send lock only
    arbitrates between this process's main and heartbeat threads.

    A supervisor that dies without shutting the pool down (SIGKILL)
    sends no EOF — sibling workers inherited the other pipe ends — so
    the heartbeat thread also watches the parent pid and exits the
    worker once it is no longer ``supervisor``.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    stop = threading.Event()
    send_lock = threading.Lock()

    def send(msg: Tuple) -> None:
        with send_lock:
            results.send(msg)

    def heartbeat() -> None:
        while not stop.wait(heartbeat_s):
            if os.getppid() != supervisor:
                os._exit(1)  # orphaned: nobody will collect our results
            try:
                send(("hb", wid))
            except Exception:
                return

    threading.Thread(target=heartbeat, daemon=True).start()

    def offset() -> Optional[int]:
        if origin_ns is None:
            return None
        return time.perf_counter_ns() - origin_ns

    try:
        while True:
            task = conn.recv()
            if task is None:
                break
            name, mode, seed, attempt, hang_s = task
            send(("start", wid, name, attempt, os.getpid(), offset()))
            if hang_s > 0:
                time.sleep(hang_s)  # chaos: a hung experiment
            try:
                payload, wall = runner(name, mode, seed)
            except Exception as exc:
                send(("error", wid, name, attempt,
                      f"{type(exc).__name__}: {exc}"))
                continue
            spill = Path(spill_dir) / f"{name}.{attempt}.json"
            atomic_write_text(spill, payload)
            send(("done", wid, name, attempt, wall, offset()))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # supervisor gone or shutting down: exit quietly
    finally:
        stop.set()


@dataclass
class _WorkerHandle:
    """Supervisor-side bookkeeping for one worker process."""

    index: int
    process: Any
    conn: Any
    results: Any = None
    #: Set when a recv on ``results`` failed (EOF or torn message);
    #: the supervisor stops waiting on the channel but keeps the handle
    #: pooled so the liveness check can do worker-lost accounting.
    results_dead: bool = False
    job: Optional[Job] = None
    last_seen: float = field(default_factory=time.monotonic)
    entries: List[str] = field(default_factory=list)
    first_busy: Optional[float] = None
    last_done: Optional[float] = None
    # Runlog-relative offsets (ns since the parent's origin), when on.
    first_start_off_ns: Optional[int] = None
    last_done_off_ns: Optional[int] = None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def wall_s(self) -> float:
        if self.first_busy is None:
            return 0.0
        end = self.last_done if self.last_done is not None \
            else time.monotonic()
        return max(0.0, end - self.first_busy)


@dataclass
class SchedulerOutcome:
    """Everything one supervised pool run produced."""

    jobs: List[Job]
    worker_walls: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return (not self.interrupted
                and all(j.state == DONE for j in self.jobs))


#: Counter names the scheduler maintains (all always present, zeroed).
COUNTER_NAMES = ("retries", "requeues", "deadline_kills", "workers_lost",
                 "workers_spawned", "heartbeat_kills", "spill_recoveries",
                 "stale_messages", "heartbeats")

#: Supervisor events that also land in the journal (job state records
#: go through their own ``t="job"`` lines).
_JOURNALED_EVENTS = frozenset({"worker-spawn", "worker-kill",
                               "worker-lost", "deadline-kill",
                               "heartbeat-kill", "interrupt"})


class JobScheduler:
    """Supervise a pool of fork workers over a set of :class:`Job`\\ s.

    Pull scheduling subsumes static sharding: eligible pending jobs are
    kept in LPT order (largest cost hint first) and handed to whichever
    worker is idle, so when a worker dies the remainder is re-shared
    across the survivors automatically — the LPT re-shard of what is
    left.  A fresh worker is spawned only when the pool would otherwise
    be empty.
    """

    def __init__(self, jobs: Sequence[Job],
                 runner: Callable[[str, str, int], Tuple[str, float]],
                 workers: int = 2,
                 journal: Optional[Journal] = None,
                 runlog=None,
                 on_event: Optional[Callable[[str, Dict[str, Any]],
                                             None]] = None,
                 heartbeat_s: float = HEARTBEAT_INTERVAL_S,
                 poll_s: float = POLL_INTERVAL_S):
        self.jobs = list(jobs)
        self.runner = runner
        self.workers = max(1, workers)
        self.journal = journal
        self.runlog = runlog
        self.on_event = on_event
        self.heartbeat_s = heartbeat_s
        self.poll_s = poll_s
        self.counters: Dict[str, int] = {n: 0 for n in COUNTER_NAMES}
        self._by_name = {job.name: job for job in self.jobs}
        self._pool: Dict[int, _WorkerHandle] = {}
        self._next_wid = 0
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._spill_dir: Optional[Path] = None
        self._retired: List[_WorkerHandle] = []

    # -- event plumbing --------------------------------------------------

    def _emit(self, kind: str, **info: Any) -> None:
        if self.journal is not None and kind in _JOURNALED_EVENTS:
            self.journal.record(kind, **info)
        if self.on_event is not None:
            self.on_event(kind, info)

    def _journal_job(self, job: Job, **extra: Any) -> None:
        if self.journal is None:
            return
        info = {"name": job.name, "state": job.state,
                "attempt": job.attempt, "requeues": job.requeues,
                "worker": job.worker, **extra}
        if job.state == DONE:
            info["payload_json"] = job.payload_json
            info["wall_s"] = round(job.wall_s, 4)
        if job.error:
            info["error"] = job.error
        self.journal.record("job", **info)

    def _log_instant(self, kind: str, **detail: Any) -> None:
        if self.runlog is not None:
            self.runlog.event("jobs", kind, **detail)

    # -- pool management -------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        wid = self._next_wid
        self._next_wid += 1
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        res_recv, res_send = self._ctx.Pipe(duplex=False)
        origin_ns = None if self.runlog is None else self.runlog.origin_ns
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, recv_conn, res_send, self.runner,
                  str(self._spill_dir), origin_ns, self.heartbeat_s,
                  os.getpid()),
            daemon=True)
        proc.start()
        recv_conn.close()  # child's ends; parent keeps send (tasks)
        res_send.close()   # and recv (results) — so death means EOF
        handle = _WorkerHandle(index=wid, process=proc, conn=send_conn,
                               results=res_recv)
        self._pool[wid] = handle
        self.counters["workers_spawned"] += 1
        self._emit("worker-spawn", worker=wid, pid=proc.pid)
        self._log_instant("worker-spawn", worker=wid)
        return handle

    def _retire(self, handle: _WorkerHandle) -> None:
        self._pool.pop(handle.index, None)
        self._retired.append(handle)
        for conn in (handle.conn, handle.results):
            try:
                conn.close()
            except OSError:
                pass

    def _kill_worker(self, handle: _WorkerHandle, reason: str) -> None:
        self._emit("worker-kill", worker=handle.index, reason=reason)
        try:
            if handle.process.pid is not None:
                os.kill(handle.process.pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass
        handle.process.join(timeout=5.0)
        self._retire(handle)

    def _shutdown(self, kill: bool = False) -> None:
        for handle in list(self._pool.values()):
            if kill:
                self._kill_worker(handle, "shutdown")
                continue
            try:
                handle.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for handle in list(self._pool.values()):
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                self._kill_worker(handle, "shutdown-timeout")
            else:
                self._retire(handle)

    # -- job lifecycle ---------------------------------------------------

    def _eligible(self, now: float) -> List[Job]:
        ready = [j for j in self.jobs
                 if j.state == PENDING and j.not_before <= now]
        return sorted(ready, key=lambda j: (-j.cost_s, j.name))

    def _assign(self, now: float) -> None:
        idle = [h for h in self._pool.values()
                if h.job is None and h.alive]
        for handle in idle:
            ready = self._eligible(now)
            if not ready:
                return
            job = ready[0]
            hang = job.hang_s if job.attempt == 0 else 0.0
            try:
                handle.conn.send((job.name, job.mode, job.seed,
                                  job.attempt, hang))
            except (OSError, BrokenPipeError):
                continue  # liveness check will reap it
            job.transition(RUNNING)
            job.worker = handle.index
            job.assigned_at = now
            handle.job = job
            if handle.first_busy is None:
                handle.first_busy = now

    def _requeue(self, job: Job, why: str, burn_attempt: bool) -> None:
        """Put a running job back in the queue (or fail it for good)."""
        now = time.monotonic()
        if burn_attempt:
            job.attempt += 1
            exhausted = job.attempt >= job.max_attempts
            budget = f"{job.max_attempts} attempts"
            self.counters["retries"] += 1
        else:
            job.requeues += 1
            exhausted = job.requeues > job.max_requeues
            budget = f"{job.max_requeues} requeues"
            self.counters["requeues"] += 1
        job.worker = None
        job.assigned_at = None
        if exhausted:
            job.error = f"{why}; budget exhausted ({budget})"
            job.transition(FAILED)
            self._journal_job(job, reason=why)
            self._log_instant("job-failed", entry=job.name, reason=why)
            self._emit("job-failed", name=job.name, reason=why)
            return
        delay = backoff_delay(job.seed, job.name,
                              job.attempt if burn_attempt else job.requeues)
        job.not_before = now + delay
        if burn_attempt:
            job.deadline_s *= 2.0  # escalate: a slow entry gets room
        job.transition(PENDING)
        self._journal_job(job, reason=why, backoff_s=round(delay, 4))
        self._log_instant("job-requeue", entry=job.name, reason=why,
                          backoff_ms=round(delay * 1000, 1))

    def _recover_from_spill(self, job: Job) -> bool:
        """A dead worker may have finished the job before dying: the
        spill file is written atomically *before* the done message, so
        if it exists and holds valid JSON the result is usable."""
        spill = self._spill_dir / f"{job.name}.{job.attempt}.json"
        try:
            payload = spill.read_text(encoding="utf-8")
            json.loads(payload)
        except (OSError, ValueError):
            return False
        self._finish(job, payload, wall_s=0.0, start_off_ns=None)
        self.counters["spill_recoveries"] += 1
        return True

    def _finish(self, job: Job, payload: str, wall_s: float,
                start_off_ns: Optional[int]) -> None:
        job.payload_json = payload
        job.wall_s = wall_s
        job.start_off_ns = start_off_ns
        job.transition(DONE)
        self._journal_job(job)
        if (self.runlog is not None and start_off_ns is not None):
            self.runlog.add_span(f"shard{job.worker}", "entry",
                                 start_off_ns * 1000,
                                 int(wall_s * 1e12), entry=job.name,
                                 attempt=job.attempt)
        self._emit("job-done", name=job.name, worker=job.worker,
                   attempt=job.attempt)

    # -- supervisor loop -------------------------------------------------

    def _handle_message(self, msg: Tuple) -> None:
        kind, wid = msg[0], msg[1]
        handle = self._pool.get(wid)
        if handle is not None:
            handle.last_seen = time.monotonic()
        if kind == "hb":
            self.counters["heartbeats"] += 1
            return
        name, attempt = msg[2], msg[3]
        job = self._by_name.get(name)
        stale = (job is None or handle is None or job.worker != wid
                 or job.attempt != attempt or job.state != RUNNING)
        if stale:
            self.counters["stale_messages"] += 1
            return
        if kind == "start":
            pid, off_ns = msg[4], msg[5]
            job.start_off_ns = off_ns
            if off_ns is not None and handle.first_start_off_ns is None:
                handle.first_start_off_ns = off_ns
            self._journal_job(job, pid=pid)
            self._log_instant("job-start", entry=job.name, worker=wid,
                              attempt=attempt)
            self._emit("job-start", name=name, worker=wid, pid=pid,
                       attempt=attempt)
        elif kind == "done":
            wall, done_off_ns = msg[4], msg[5]
            if done_off_ns is not None:
                handle.last_done_off_ns = done_off_ns
            spill = self._spill_dir / f"{name}.{attempt}.json"
            try:
                payload = spill.read_text(encoding="utf-8")
            except OSError:
                # Spill vanished (should not happen): treat as a crash.
                self._requeue(job, "spill file missing", burn_attempt=True)
                handle.job = None
                return
            self._finish(job, payload, wall, job.start_off_ns)
            handle.entries.append(name)
            handle.last_done = time.monotonic()
            handle.job = None
        elif kind == "error":
            error = msg[4]
            job.error = error
            self._requeue(job, f"attempt raised: {error}",
                          burn_attempt=True)
            self._log_instant("job-error", entry=name, error=error)
            self._emit("job-error", name=name, error=error)
            handle.job = None

    def _check_deadlines(self, now: float) -> None:
        for handle in list(self._pool.values()):
            job = handle.job
            if job is None or job.assigned_at is None:
                continue
            if now - job.assigned_at <= job.deadline_s:
                continue
            self.counters["deadline_kills"] += 1
            self._log_instant("deadline-kill", entry=job.name,
                              worker=handle.index,
                              deadline_s=job.deadline_s)
            self._emit("deadline-kill", name=job.name,
                       worker=handle.index, deadline_s=job.deadline_s)
            handle.job = None
            self._kill_worker(handle, f"deadline: {job.name}")
            self._requeue(job, f"deadline {job.deadline_s:g}s exceeded",
                          burn_attempt=True)

    def _check_liveness(self, now: float) -> None:
        hb_timeout = max(2.0, 20 * self.heartbeat_s)
        for handle in list(self._pool.values()):
            if handle.alive:
                # Heartbeats gone silent on an *assigned* worker long
                # before its job's deadline means the worker wedged
                # without ever starting (e.g. stuck in the pipe).  The
                # deadline check owns jobs that started and hung.
                if (handle.job is not None
                        and now - handle.last_seen > hb_timeout):
                    job = handle.job
                    handle.job = None
                    self.counters["heartbeat_kills"] += 1
                    self._emit("heartbeat-kill", worker=handle.index,
                               name=job.name)
                    self._log_instant("heartbeat-kill",
                                      worker=handle.index, entry=job.name)
                    self._kill_worker(handle,
                                      f"heartbeat lost: {job.name}")
                    self._requeue(job, "worker heartbeat lost",
                                  burn_attempt=False)
                continue
            # Process died under us (SIGKILL, OOM, crash).
            job = handle.job
            handle.job = None
            self._retire(handle)
            self.counters["workers_lost"] += 1
            self._log_instant("worker-lost", worker=handle.index,
                              exitcode=handle.process.exitcode)
            self._emit("worker-lost", worker=handle.index,
                       exitcode=handle.process.exitcode,
                       name=job.name if job else None)
            if job is not None and not self._recover_from_spill(job):
                self._requeue(job, f"worker {handle.index} died "
                              f"(exit {handle.process.exitcode})",
                              burn_attempt=False)

    def _drain_results(self) -> None:
        """Wait up to ``poll_s`` on the per-worker result pipes and
        handle everything that arrived.  A recv that fails — EOF after
        a death, or a message torn by a SIGKILL landing mid-send —
        poisons only that worker's own channel: mark it dead, make sure
        the process is too, and leave the handle pooled so the liveness
        check does the worker-lost accounting and requeue.  (A shared
        result queue would instead die holding its write lock and wedge
        every survivor.)"""
        conns = {h.results: h for h in self._pool.values()
                 if not h.results_dead}
        if not conns:
            time.sleep(self.poll_s)
            return
        ready = multiprocessing.connection.wait(list(conns),
                                                timeout=self.poll_s)
        for rconn in ready:
            handle = conns[rconn]
            msgs: List[Tuple] = []
            try:
                while rconn.poll():
                    msgs.append(rconn.recv())
            except Exception:
                handle.results_dead = True
                try:
                    if handle.process.pid is not None:
                        os.kill(handle.process.pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass
            for msg in msgs:
                self._handle_message(msg)

    def _unfinished(self) -> List[Job]:
        return [j for j in self.jobs if not j.finished]

    def run(self) -> SchedulerOutcome:
        """Drive the pool until every job is DONE/FAILED (or interrupt)."""
        outcome = SchedulerOutcome(jobs=self.jobs, counters=self.counters)
        if not self.jobs:
            return outcome
        self._spill_dir = Path(tempfile.mkdtemp(prefix="tca-bench-jobs-"))
        target = min(self.workers, len(self.jobs))
        try:
            for _ in range(target):
                self._spawn_worker()
            while self._unfinished():
                now = time.monotonic()
                if not self._pool:
                    # Pool drained (deaths/kills): LPT re-shard of the
                    # remainder needs at least one survivor.
                    self._spawn_worker()
                self._assign(now)
                self._drain_results()
                now = time.monotonic()
                self._check_deadlines(now)
                self._check_liveness(now)
            self._shutdown()
        except KeyboardInterrupt:
            outcome.interrupted = True
            self._emit("interrupt",
                       unfinished=[j.name for j in self._unfinished()])
            self._shutdown(kill=True)
        finally:
            for handle in list(self._pool.values()):
                self._retire(handle)
            if self._spill_dir is not None:
                shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._flush_runlog_counters()
        workers = sorted(self._retired, key=lambda h: h.index)
        outcome.worker_walls = [
            {"shard": h.index, "entries": h.entries,
             "wall_s": round(h.wall_s, 4)}
            for h in workers if h.entries or h.first_busy is not None]
        if self.runlog is not None:
            for h in workers:
                if (h.first_start_off_ns is None
                        or h.last_done_off_ns is None):
                    continue
                self.runlog.add_span(
                    f"shard{h.index}", "shard",
                    h.first_start_off_ns * 1000,
                    (h.last_done_off_ns - h.first_start_off_ns) * 1000,
                    entries=len(h.entries))
        return outcome

    def _flush_runlog_counters(self) -> None:
        if self.runlog is None:
            return
        for name, value in self.counters.items():
            if value:
                self.runlog.metrics.counter(f"suite.jobs.{name}").inc(value)


def run_job_inline(job: Job,
                   runner: Callable[[str, str, int], Tuple[str, float]],
                   journal: Optional[Journal] = None,
                   on_event: Optional[Callable] = None,
                   sleep: Callable[[float], None] = time.sleep) -> Job:
    """Single-process execution of one job with the same retry contract.

    Used by the one-shard suite path, where no worker pool is wanted.
    Deadlines cannot be enforced without a supervisor process, so only
    the exception-retry half of the state machine applies here.
    """
    def emit(t: str, **info: Any) -> None:
        if journal is not None:
            journal.record(t, **info)
        if on_event is not None:
            on_event(t, info)

    while not job.finished:
        job.transition(RUNNING)
        emit("job", name=job.name, state=RUNNING, attempt=job.attempt,
             requeues=job.requeues, worker=None)
        try:
            payload, wall = runner(job.name, job.mode, job.seed)
        except KeyboardInterrupt:
            job.transition(PENDING)
            raise
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            job.attempt += 1
            if job.attempt >= job.max_attempts:
                job.transition(FAILED)
                emit("job", name=job.name, state=FAILED,
                     attempt=job.attempt, requeues=job.requeues,
                     worker=None, error=job.error)
                return job
            delay = backoff_delay(job.seed, job.name, job.attempt)
            job.transition(PENDING)
            emit("job", name=job.name, state=PENDING,
                 attempt=job.attempt, requeues=job.requeues, worker=None,
                 reason=job.error, backoff_s=round(delay, 4))
            sleep(delay)
            continue
        job.payload_json = payload
        job.wall_s = wall
        job.error = None
        job.transition(DONE)
        emit("job", name=job.name, state=DONE, attempt=job.attempt,
             requeues=job.requeues, worker=None, payload_json=payload,
             wall_s=round(wall, 4))
    return job
