"""One benchmark run: set-up, warm-up, measured phase, verification.

A run is one workload in one (fresh) process:

1. **set-up** -- generate the graph, generate the inputs from the seed,
   build the system under test and answer the first query.  The same
   stages also run in further fresh processes (``SETUP_PROCESSES`` in
   all); ``setup_s`` and ``first_answer_ms`` are medians over them;
2. **warm-up** -- not part of the measured phase, counted in ``setup_s``;
3. **measured phase** -- closed loop replaying the workload's block for
   ``--seconds`` (whole passes, and on until ``MIN_QUERIES_TIMED``
   queries are timed), garbage collector collected between passes and
   disabled inside them, tracing off;
4. **verification** -- untimed, against an oracle that shares no state
   with the system under test.

The end-to-end times are referred to a fixed kernel timed beside them
(see :class:`Speedometer`); the clock's own readings are kept in the
record.  The traced run (``--trace 1``) replaces step 3 by one untraced
reference pass and traced passes over the same block; it reports the
per-layer metrics, as the clock read them, and never the end-to-end ones.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import tracing
import workloads
from workloads import Vector, Workload

#: Fresh processes that set the workload up (this one included).  A first
#: answer is one short event in a cold interpreter: only the median of
#: several processes is steady enough to gate.
SETUP_PROCESSES = 3
#: The measured phase goes on past ``--seconds`` until it has timed this
#: many queries: the 90th percentile needs ten samples beyond it.
MIN_QUERIES_TIMED = 100
_now = time.perf_counter
_TICKS = os.sysconf("SC_CLK_TCK")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")


# ----------------------------------------------------------------------
# Process accounting (this process plus its live and reaped children)
# ----------------------------------------------------------------------
def _child_pids() -> List[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid]


def cpu_seconds() -> float:
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + reaped.ru_utime + reaped.ru_stime
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _TICKS
        except (OSError, IndexError, ValueError):
            pass
    return total


def peak_rss_mb() -> float:
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (OSError, IndexError, ValueError):
            pass
    return total_kb / 1024.0


def percentile(values: List[float], p: float) -> float:
    """Percentile of *values* (not empty), interpolating linearly between
    the two closest ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hashseed": os.environ.get("PYTHONHASHSEED", ""),
    }


def timed(stage: Callable[[], object]) -> Tuple[float, object]:
    """``(seconds, stage())``."""
    begin = _now()
    result = stage()
    return _now() - begin, result


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
class Speedometer:
    """Reads how much slower than a reference speed the machine runs now.

    This sandbox's speed wanders: for minutes at a time everything, CPU
    time included, takes 25-50% longer.  Ten runs of one commit, each
    steady within itself, spread by up to 30-55% on the time metrics as
    the clock reads them (five series of six; see the README), more than
    the largest bound the benchmark may set.  Two things slow the box, at
    different times: the core (an arithmetic loop slows with the
    program) and the memory under it (the loop keeps its pace while a
    walk over Python objects, and the program, lose a third).  So a fixed
    kernel that does both -- arithmetic for two thirds of its time, then
    a walk over a table of tuples, strings and lists too large for a
    core's own caches -- is timed between the passes of the measured
    phase and between the stages of the set-up, and an end-to-end time
    is the clock's reading divided by the kernel's slowdown around it:
    milliseconds at the reference speed.  The kernel belongs to the
    benchmark, not to the program, so no change to the program moves it.
    """

    #: the kernel's duration at the reference speed: about its fastest
    #: on the box the first baseline was measured on
    REFERENCE_MS = 5.4
    ENTRIES = 50000

    def __init__(self) -> None:
        entries = self.ENTRIES
        self.table = {
            i: (i * 0.5, f"w{i % 4099}",
                [(i * 7919 + j * 104729) % entries for j in range(6)])
            for i in range(entries)}
        self.walk = [(i * 15485863) % entries for i in range(1000)]

    def _kernel(self) -> float:
        total = 0
        for i in range(60000):
            total += i * i % 7
        table = self.table
        seen = set()
        for key in self.walk:
            score, word, neighbours = table[key]
            for neighbour in neighbours:
                other_score, other_word, _ = table[neighbour]
                if other_word[-1] == word[-1]:
                    total += other_score
                seen.add(other_word)
            total += score
        return total + len(seen)

    def factor(self) -> float:
        """The median of five timings: a burst that hits one of them is
        not the speed of the pass beside it."""
        timings = []
        for _ in range(5):
            begin = _now()
            self._kernel()
            timings.append(_now() - begin)
        return statistics.median(timings) * 1000.0 / self.REFERENCE_MS


class Stopwatch:
    """Times set-up stages in seconds at the reference speed: each stage
    is divided by the mean of the speed factors read before and after."""

    def __init__(self) -> None:
        self.meter = Speedometer()
        self.factors = [self.meter.factor()]
        #: the last stage as the clock read it
        self.elapsed = 0.0

    def time(self, stage: Callable[[], object]) -> Tuple[float, object]:
        """``(seconds, stage())``."""
        self.elapsed, result = timed(stage)
        self.factors.append(self.meter.factor())
        return self.elapsed / statistics.fmean(self.factors[-2:]), result


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
Timing = Tuple[float, int]  # (ms as the clock read them, pass)


class Phase:
    """What the passes over a workload's block observed."""

    def __init__(self) -> None:
        #: timings per sample key: operations that do identical work
        self.samples: Dict[object, List[Timing]] = {}
        #: every timed query execution, failed ones included: the caller
        #: waited that long for the failure
        self.query_timings: List[Timing] = []
        #: per pass: the machine's slowdown around it, wall and CPU
        #: seconds, queries sent, queries answered correctly
        self.pass_factor: List[float] = []
        self.pass_wall_s: List[float] = []
        self.pass_cpu_s: List[float] = []
        self.pass_queries: List[int] = []
        self.pass_correct: List[int] = []
        self.ops = 0
        self.failed = 0
        self.errors: List[str] = []

    @property
    def passes(self) -> int:
        return len(self.pass_wall_s)

    def ms(self, timings: List[Timing], reference: bool) -> List[float]:
        """*timings* as read, or at the reference speed."""
        return [ms / self.pass_factor[i] if reference else ms
                for ms, i in timings]

    def block_ms(self, wl: Workload, reference: bool = False) -> List[float]:
        """Latency of every position of the block (writes included): the
        median of the position's replays."""
        return [statistics.median(self.ms(
                    self.samples[wl.sample_key(position)], reference))
                for position in range(len(wl.ops))]


def run_phase(wl: Workload, answers: Dict[int, Vector], seconds: float,
              meter: Speedometer, min_queries: int = 0,
              passes: Optional[int] = None, begin_first: bool = True,
              tracer: Optional[tracing.Tracing] = None,
              on_op: Optional[Callable[[int], None]] = None) -> Phase:
    """Closed loop over the workload's block: every client thread sends
    its next operation only when the previous one has been answered.

    Replays the block in whole passes (so that every operation is timed
    equally often) until *seconds* have gone by and *min_queries* queries
    are timed, or for exactly *passes* passes when given.  Each pass is
    timed on its own; what happens between passes (``begin_pass``, a
    collection, a reading of the machine's speed) is not measured.
    ``answers`` keeps the first score vector per query id; a replay that
    disagrees with it is a failed operation (unless the block writes).
    An operation that raises is a failed operation too, and the time
    until it raised is its latency.
    """
    phase = Phase()
    threads = wl.threads if tracer is None else 1
    replay_checked = all(op >= 0 for op in wl.ops)
    lock = threading.Lock()
    deadline = _now() + seconds

    def client(thread: int) -> None:
        block = wl.ops  # ``begin_pass`` may have reordered it
        offset = thread * len(block) // threads
        timings: List[Tuple[int, float]] = []  # (position, ms)
        correct = 0
        errors: List[str] = []
        for step in range(len(block)):
            position = (offset + step) % len(block)
            op = block[position]
            frame = tracer.begin_op(position) if tracer else None
            vector = error = None
            begin = _now()
            try:
                vector = wl.run(op, thread)
            except Exception as exc:  # a failed op must not end the run
                error = f"op {position}: {type(exc).__name__}: {exc}"
            timings.append((position, (_now() - begin) * 1000.0))
            if frame is not None:
                tracer.end_op(frame)
            if error is None and op >= 0:
                if answers.setdefault(op, vector) != vector \
                        and replay_checked:
                    error = f"replay of query {op} changed its answer"
                else:
                    correct += 1
            if error is not None:
                errors.append(error)
            if on_op is not None:
                on_op(op)
        with lock:
            for position, ms in timings:
                timing = (ms, phase.passes)
                phase.samples.setdefault(
                    wl.sample_key(position), []).append(timing)
                if block[position] >= 0:
                    phase.query_timings.append(timing)
            phase.ops += len(timings)
            phase.failed += len(errors)
            phase.errors.extend(errors[:max(0, 5 - len(phase.errors))])
            phase.pass_correct[-1] += correct

    queries_per_pass = threads * sum(1 for op in wl.ops if op >= 0)
    # the speed is read before ``begin_pass``: that may fork workers,
    # which are busy starting up for a while
    factors = [meter.factor()]
    gc.disable()
    try:
        while True:
            if begin_first or phase.passes:
                wl.begin_pass()
            gc.collect()  # the collector is off while operations run
            phase.pass_correct.append(0)
            cpu_before = cpu_seconds()
            begin = _now()
            if threads == 1:
                client(0)
            else:
                workloads.run_threads(client, threads)
            wall_s, cpu_s = _now() - begin, cpu_seconds() - cpu_before
            factors.append(meter.factor())
            phase.pass_factor.append(statistics.fmean(factors[-2:]))
            phase.pass_wall_s.append(wall_s)
            phase.pass_cpu_s.append(cpu_s)
            phase.pass_queries.append(queries_per_pass)
            if passes is not None:
                if phase.passes >= passes:
                    break
            elif _now() >= deadline \
                    and len(phase.query_timings) >= min_queries:
                break
    finally:
        gc.enable()
    return phase


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
#: the stages before the warm-up, in order; ``first_answer_s`` is the
#: build plus the first query
STAGES = ("import_s", "graph_s", "inputs_s", "prepare_s", "first_answer_s")


def set_up(name: str, seed: int, smoke: bool, import_s: float,
           watch: Stopwatch,
           pick: Callable[[Workload], Workload] = lambda wl: wl):
    """Everything up to the first answer, each stage timed by *watch*.

    Returns ``(workload, driven, stages, first vector)`` where *driven* is
    ``pick(workload)``: the workload itself, or its traced twin.
    """
    stages = {"import_s": import_s / watch.factors[0]}
    stages["graph_s"], graph = watch.time(
        lambda: workloads.build_graph(smoke))
    stages["graph_as_read_s"] = watch.elapsed
    stages["inputs_s"], wl = watch.time(
        lambda: workloads.make(name, graph, seed, smoke, OUT_DIR))
    driven = pick(wl)
    stages["prepare_s"] = watch.time(driven.prepare)[0]

    # Build and answer are one stage with one speed factor: workers
    # forked by the build are still starting up when it returns, which a
    # reading between the two would take for a slow machine.
    def build_and_answer() -> Vector:
        driven.build()
        return driven.run(0)

    stages["first_answer_s"], first_vector = watch.time(build_and_answer)
    stages["speed_factor"] = statistics.fmean(watch.factors)
    return wl, driven, stages, first_vector


def set_up_only(name: str, seed: int, smoke: bool, import_s: float) -> dict:
    """What a ``--setup-only`` process reports: its stages and its first
    answer."""
    _wl, driven, stages, first_vector = set_up(name, seed, smoke, import_s,
                                               Stopwatch())
    driven.close()
    driven.cleanup()
    return {"stages": stages, "first_vector": first_vector}


def fresh_set_ups(name: str, seed: int, smoke: bool, count: int) \
        -> List[dict]:
    """Run the set-up in *count* fresh processes, one after the other."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               name, "--seed", str(seed), "--setup-only"]
    if smoke:
        command.append("--smoke")
    reports = []
    for _ in range(count):
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONHASHSEED="0"),
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process of {name} exited with "
                               f"{done.returncode}")
        reports.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return reports


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def verify(wl: Workload, driven: Workload, answers: Dict[int, Vector],
           first_vectors: List[Vector], verify_all: bool) -> dict:
    """Check answers against the oracle; pin the digest of all of them.

    ``driven.verify_ids(verify_all)`` are compared with the oracle; every
    distinct query's answer goes into the digest.  On a workload that
    writes, every query is answered again now, on the graph as the writes
    left it, and the first answers (given before the writes) are not
    checked.
    """
    distinct = sorted({op for op in driven.ops if op >= 0})
    mutated = any(op < 0 for op in driven.ops)
    driven.settle()
    if mutated:
        answers = {qi: driven.run(qi) for qi in distinct}
    scorer = driven.oracle_scorer()
    ids = driven.verify_ids(verify_all)
    wanted = {qi: driven.oracle(scorer, qi) for qi in ids}
    wrong = [f"query {qi} ({driven.texts[qi]}): got {answers.get(qi)}, "
             f"oracle {want}"
             for qi, want in wanted.items() if answers.get(qi) != want]
    mismatched = len(wrong)
    if not mutated and any(vector != wanted[0] for vector in first_vectors):
        wrong.append("a first answer disagrees with the oracle")
    digest = hashlib.sha256(json.dumps(
        [[[driven.texts[qi], answers.get(qi)] for qi in distinct],
         driven.digest_extra()], sort_keys=True).encode()).hexdigest()[:16]
    golden = _golden_digest(wl)
    if golden is not None and golden != digest:
        wrong.append(f"result digest {digest} != pinned {golden}")
    return {"checked": len(ids), "mismatched": mismatched, "wrong": wrong,
            "digest": digest, "pinned": golden}


def _golden_digest(wl: Workload) -> Optional[str]:
    """The pinned digest of this workload's answers (full size only: the
    pools, and so the answers, are the same for every seed)."""
    if wl.smoke:
        return None
    with open(GOLDEN) as handle:
        return json.load(handle)["digests"][wl.name]


def recall_at_k(driven: Workload, check: dict) -> float:
    hits = getattr(driven, "hits", None)
    if hits:
        return sum(hits.values()) / len(hits)
    return (check["checked"] - check["mismatched"]) / check["checked"]


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def run_end_to_end(name: str, seed: int, seconds: float, smoke: bool,
                   import_s: float, verify_all: bool) -> dict:
    others = fresh_set_ups(name, seed, smoke,
                           0 if smoke else SETUP_PROCESSES - 1)
    watch = Stopwatch()
    wl, driven, stages, first_vector = set_up(name, seed, smoke, import_s,
                                              watch)
    try:
        warm_s = watch.time(driven.warm)[0]
        answers: Dict[int, Vector] = {}
        phase = run_phase(driven, answers, seconds, watch.meter,
                          0 if smoke else MIN_QUERIES_TIMED)
        rss = peak_rss_mb()
        verify_s, check = timed(lambda: verify(
            wl, driven, answers,
            [first_vector] + [other["first_vector"] for other in others],
            verify_all))
    finally:
        driven.close()
        driven.cleanup()
    set_ups = [stages] + [other["stages"] for other in others]
    failed = phase.failed + len(check["wrong"])
    attempted = phase.ops + check["checked"]
    metrics = {
        **phase_metrics(phase, driven, reference=True),
        "first_answer_ms": (statistics.median(
            s["first_answer_s"] for s in set_ups) * 1000.0, "ms"),
        "setup_s": (statistics.median(
            sum(s[stage] for stage in STAGES) for s in set_ups) + warm_s,
            "s"),
        "peak_rss_mb": (rss, "MB"),
        "recall_at_k": (recall_at_k(driven, check), "ratio"),
    }
    return {
        "result": _result(attempted, failed, metrics),
        "detail": {
            "failed_ratio": failed / max(1, attempted),
            "queries_timed": len(phase.query_timings),
            "distinct_timed": len(phase.samples),
            "ops": phase.ops,
            "passes": phase.passes,
            "pass_wall_s": phase.pass_wall_s,
            "pass_factor": phase.pass_factor,
            "as_read": {key: value for key, (value, _unit) in
                        phase_metrics(phase, driven, False).items()},
            "verified": check["checked"],
            "verify_s": verify_s,
            "digest": check["digest"],
            "pinned_digest": check["pinned"],
            "input_digest": wl.input_digest(),
            "errors": phase.errors + check["wrong"],
            "set_ups": set_ups,
            "warm_s": warm_s,
        },
    }


def phase_metrics(phase: Phase, wl: Workload, reference: bool) -> dict:
    """The four metrics of the measured phase, at the reference speed or
    as the clock read them."""
    slowdown = phase.pass_factor if reference else [1.0] * phase.passes
    block_ms = phase.block_ms(wl, reference)
    return {
        "latency_p50_ms": (statistics.median(
            ms for ms, op in zip(block_ms, wl.ops) if op >= 0), "ms"),
        "latency_p90_ms": (percentile(
            phase.ms(phase.query_timings, reference), 0.9), "ms"),
        "throughput_qps": (statistics.median(
            correct / (wall / factor) for correct, wall, factor
            in zip(phase.pass_correct, phase.pass_wall_s, slowdown)), "1/s"),
        "cpu_s_per_query": (statistics.median(
            cpu / factor / queries for cpu, queries, factor
            in zip(phase.pass_cpu_s, phase.pass_queries, slowdown)), "s"),
    }


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def run_traced(name: str, seed: int, seconds: float, smoke: bool,
               import_s: float, verify_all: bool) -> dict:
    import layers

    tr = tracing.Tracing().install(extra_modules=(workloads,))
    probe = layers.Probe(tr)
    try:
        tr.start()  # set-up spans: index/ann/shard/store build times
        watch = Stopwatch()
        wl, driven, stages, first_vector = set_up(
            name, seed, smoke, import_s, watch,
            pick=lambda w: w.traced_twin())
        try:
            driven.warm()
            tr.stop()
            probe.after_setup(wl, driven, stages, seconds, watch.meter)
            tr.end_setup()
            answers: Dict[int, Vector] = {}
            reference = run_phase(driven, answers, seconds, watch.meter,
                                  passes=1)
            # one traced pass whose counters are kept (the block is
            # fixed, so they repeat exactly), then traced passes for the
            # rest of the time
            driven.begin_pass()
            probe.begin(driven)
            tr.start()
            head = run_phase(driven, answers, seconds, watch.meter,
                             passes=1, begin_first=False, tracer=tr,
                             on_op=probe.after_op)
            probe.counted(driven)
            tail = run_phase(
                driven, answers, seconds - sum(reference.pass_wall_s)
                - sum(head.pass_wall_s), watch.meter, tracer=tr)
            tr.stop()
            check = verify(wl, driven, answers, [first_vector], verify_all)
        finally:
            driven.close()
            driven.cleanup()
    finally:
        tr.stop()
        tr.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = tr.write_jsonl(os.path.join(OUT_DIR, f"trace_{name}.jsonl"))
    metrics, shares, unmoved = probe.metrics(driven, reference, head, tail)
    failed = (reference.failed + head.failed + tail.failed
              + len(check["wrong"]) + len(unmoved))
    attempted = reference.ops + head.ops + tail.ops + check["checked"]
    return {
        "result": _result(attempted, failed, metrics),
        "detail": {
            "failed_ratio": failed / max(1, attempted),
            "traced_ops": head.ops + tail.ops,
            "counted_ops": head.ops,
            "spans": spans,
            "layer_share": shares,
            "digest": check["digest"],
            "errors": (reference.errors + head.errors + tail.errors
                       + check["wrong"] + unmoved),
        },
    }
