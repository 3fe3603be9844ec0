"""The serving simulator: a deterministic discrete-event loop.

Each iteration runs a fixed sequence of stages over the run's state:
*admit* (the KV-capacity loss due now, then due retries, then
arrivals), *reap* (cancellations and deadlines), *degrade* (overload
hysteresis), *schedule* (queue order, the batcher's plan, KV blocks for
its decodes — preempting victims when the pool is out — and prefill
chunks), *unblock* (only when no step can run), *price* (the
:class:`~repro.serve.cost.ServeCostModel` step cost and the fault
draws; the clock advances by exactly that cost), *apply* (roll the
step back, or commit its effects to every request) and *record*
(samples, gauges, the step span, the step budget).  There is no
randomness anywhere in the loop — given a seeded traffic trace, two
runs produce bit-identical metrics.

Resilience (`repro.resilience`) threads through the same loop without
breaking that contract.  A :class:`~repro.resilience.faults.FaultPlan`
is the *environment*: straggler windows multiply step costs, capacity
windows shrink the KV pool, seeded steps lose their work, seeded clients
cancel.  A :class:`~repro.resilience.policies.ResilienceConfig` is the
*response*, enabled only on the hardened simulator: deadline
timeout-cancellation, exponential-backoff retry of admission-rejected
work, watchdog shed-and-continue instead of deadlock, and graceful
degradation (clamped outputs, reduced step budgets, queue shedding,
proactive KV headroom) under sustained overload.  Both sides are pure
functions of their seeds, so every failure and every recovery replays
bit-identically.

The loop is exposed two ways.  :meth:`ServeSimulator.run` is the classic
batch entry point: feed it a whole trace, get a report.  Underneath it
is an *incremental* engine — :meth:`begin` / :meth:`push` /
:meth:`advance` / :meth:`finish` — that lets an external driver own the
clock: `repro.fleet` advances N replicas in lockstep by repeatedly
asking each for its :meth:`next_time` and stepping the earliest one
until anything else is due.  A step re-derives only what changed: the
queue is sorted only when two or more requests wait, and the step price
is a memo lookup plus the decode KV stream.
:meth:`evacuate` supports replica death: it hands every non-terminal
request back (KV gone, ready to re-prefill elsewhere) so a router can
fail them over without losing any.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass

from ..core.errors import DeadlockError, ServeConfigError, StepBudgetError
from ..obs.context import current as _obs
from ..obs.context import install as _install_obs
from ..obs.context import use as _use_obs
from ..platform.machine import MachineModel
from ..tpp.dtypes import DType
from ..workloads.llm import LlmConfig
from .batcher import ContinuousBatcher
from .cost import ServeCostModel
from .kv_pool import PagedKvPool
from .metrics import ServeMetrics, ServeSummary
from .request import RequestState
from .scheduler import Scheduler

__all__ = ["ServeReport", "ServeSimulator"]


@dataclass(frozen=True)
class ServeReport:
    """Everything one simulation run produced."""

    summary: ServeSummary
    metrics: ServeMetrics
    requests: tuple
    config_name: str
    machine_name: str
    stack_name: str
    batcher_name: str
    n_steps: int
    #: fleet replica that produced this report (None: single-node run)
    replica_id: int | None = None


class _RunState:
    """Mutable state of one serving run, alive between :meth:`begin`
    and :meth:`finish`.  One iteration of the classic loop == one
    :meth:`ServeSimulator.advance` call over this state."""

    __slots__ = ("reqs", "i", "waiting", "running", "retry_heap", "now",
                 "steps", "max_steps", "degraded", "hot", "cool",
                 "metrics", "obs", "timing", "admit_ts", "sched_ts",
                 "decode_buf", "prefill_buf", "chunk_buf", "ctx_buf")

    def __init__(self, metrics, obs, timing, max_steps):
        self.reqs: list = []        # arrival-sorted; [:i] already admitted
        self.i = 0
        self.waiting: list = []
        self.running: list = []
        self.retry_heap: list = []  # (due_s, rid, request)
        # per-step scratch, reused across every advance() so the steady-
        # state loop allocates no fresh batch containers
        self.decode_buf: list = []
        self.prefill_buf: list = []
        self.chunk_buf: list = []
        self.ctx_buf: list = []
        self.now = 0.0
        self.steps = 0
        self.max_steps = max_steps
        self.degraded = False
        self.hot = 0
        self.cool = 0
        self.metrics = metrics
        self.obs = obs
        self.timing = timing
        self.admit_ts: dict = {}    # rid -> admission time (tracing)
        self.sched_ts: dict = {}    # rid -> first prefill schedule time

    def queued_times(self) -> list:
        """When the next un-admitted arrival and the next retry are due."""
        times = []
        if self.i < len(self.reqs):
            times.append(self.reqs[self.i].arrival_s)
        if self.retry_heap:
            times.append(self.retry_heap[0][0])
        return times


class ServeSimulator:
    """Ties traffic, scheduler, batcher, KV pool and cost model together.

    ``faults`` injects a seeded fault environment; ``resilience``
    enables the recovery policies.  With both left ``None`` the loop is
    exactly the baseline simulator.  ``sdc`` (an
    :class:`~repro.resilience.sdc.SdcPlan`) injects seeded silent data
    corruption into serve steps: with ``resilience`` set the ABFT
    defense detects every event and either corrects in place or rolls
    the step back for a deterministic recompute; without it the
    corruption lands silently and taints the touched requests.

    ``obs`` binds the simulator to one observability context
    (:class:`repro.Session` passes its own); ``None`` uses whatever
    context is ambient when :meth:`run` is called.  With observability
    on, every run mirrors its funnel into counters, its pool pressure
    into gauges, and each request's admit→prefill→decode→finish
    timeline into simulated-time trace spans on a ``req <rid>`` track.

    ``replica_id`` names this simulator inside a fleet: request/step
    tracks and mirrored metrics gain the replica label, and routed
    requests are stamped with it."""

    def __init__(self, config: LlmConfig, machine: MachineModel,
                 stack_name: str = "parlooper",
                 dtype: DType = DType.BF16,
                 batcher=None, scheduler: Scheduler | None = None,
                 block_tokens: int = 16, mem_fraction: float = 0.9,
                 cost: ServeCostModel | None = None,
                 resilience=None, faults=None, sdc=None, obs=None,
                 replica_id: int | None = None, tuner=None):
        if not isinstance(block_tokens, int) or block_tokens <= 0:
            raise ServeConfigError(
                f"block_tokens must be a positive integer, got "
                f"{block_tokens!r}")
        if not 0.0 < mem_fraction <= 1.0:
            raise ServeConfigError(
                f"mem_fraction must be in (0, 1], got {mem_fraction!r}")
        self.config = config
        self.machine = machine
        self.stack_name = stack_name
        # a shared cost model carries its engine-priced anchors across
        # runs (sweeps re-price nothing)
        # an admission-time OnlineTuner threads into the cost model: new
        # GEMM shapes get a tuned spec (and the shared EvalCache corpus
        # grows) the first time serving prices them
        self.cost = cost if cost is not None else \
            ServeCostModel.for_stack(config, machine, stack_name, dtype,
                                     tuner=tuner)
        self.pool = PagedKvPool(config, machine, dtype,
                                block_tokens=block_tokens,
                                mem_fraction=mem_fraction)
        self.batcher = batcher if batcher is not None \
            else ContinuousBatcher()
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.resilience = resilience
        self.faults = faults
        self.sdc = sdc
        self.obs = obs
        self.replica_id = replica_id
        self._st: _RunState | None = None

    # -- track naming (replica-aware) -----------------------------------
    @property
    def step_track(self) -> str:
        return "serve" if self.replica_id is None \
            else f"replica {self.replica_id}"

    def _req_track(self, rid) -> str:
        return f"req {rid}" if self.replica_id is None \
            else f"r{self.replica_id} req {rid}"

    # -- the classic batch entry point ----------------------------------
    def run(self, requests, max_steps: int = 1_000_000) -> ServeReport:
        reqs = self._validate(requests)
        self.begin(reqs, max_steps=max_steps, validate=False)
        try:
            while self.advance():
                pass
        except BaseException:
            self._st = None        # a fresh run() stays possible
            raise
        return self.finish()

    # -- the incremental engine -----------------------------------------
    def begin(self, requests=(), max_steps: int = 1_000_000,
              validate: bool = True) -> "ServeSimulator":
        """Open an incremental run.  *requests* may be empty: a fleet
        driver :meth:`push`\\ es routed arrivals as it goes and owns the
        decision of when to :meth:`advance`.  The cost model's engine
        anchors are priced here, so the step loop replays no traces."""
        if max_steps <= 0:
            raise ServeConfigError(
                f"max_steps must be positive, got {max_steps!r}")
        if self._st is not None:
            raise ServeConfigError(
                "a run is already in progress: finish() it first")
        obs = self.obs if self.obs is not None else _obs()
        metrics = ServeMetrics(
            obs=obs if obs.enabled else None,
            replica=(None if self.replica_id is None
                     else str(self.replica_id)),
            track_prefix=("" if self.replica_id is None
                          else f"r{self.replica_id} "))
        with _use_obs(obs):
            self.cost.prime()
        self._st = _RunState(metrics, obs, obs.tracer.enabled, max_steps)
        reqs = self._validate(requests) if validate and requests \
            else requests
        for req in reqs:
            self.push(req)
        return self

    def push(self, req) -> None:
        """Feed one routed arrival into an in-progress run.  Arrivals
        normally come in time order (O(1) append); failover re-routes
        may arrive late and are insertion-sorted into the un-admitted
        tail so admission order stays deterministic."""
        st = self._st
        if st is None:
            raise ServeConfigError("push() called before begin()")
        res = self.resilience
        if res is not None and res.deadline_s is not None \
                and req.deadline_s is None:
            req.deadline_s = req.arrival_s + res.deadline_s
        if self.faults is not None:
            # hedge clones inherit the primary's cancel fate verbatim;
            # re-drawing from the clone's synthetic rid would let one
            # user decision split into two
            if req.cancel_s is None and req.hedge_of is None:
                req.cancel_s = self.faults.cancel_s(req)
            if req.cancel_s is not None and st.obs.metrics.enabled:
                st.obs.inc("fault_injections", kind="client_cancel")
        if self.replica_id is not None:
            req.replica = self.replica_id
        reqs = st.reqs
        key = (req.arrival_s, req.rid)
        j = len(reqs)
        while j > st.i and (reqs[j - 1].arrival_s, reqs[j - 1].rid) > key:
            j -= 1
        reqs.insert(j, req)
        st.metrics.n_submitted += 1

    def next_time(self) -> float | None:
        """Earliest simulated time this replica can make progress, or
        ``None`` when it is fully drained.  With work queued or running
        that is *now*; idle, it is the next pending arrival or retry
        (the fleet clock advances the earliest replica first)."""
        st = self._st
        if st is None:
            return None
        if st.waiting or st.running:
            return st.now
        times = st.queued_times()
        return max(st.now, min(times)) if times else None

    def sync_clock(self, now_s: float) -> None:
        """Fast-forward this replica's local clock to the fleet clock
        (never backwards).  The fleet calls it when routing work at
        global time *now_s* so an idle replica cannot execute routed
        work in its local past — the lockstep-clock contract."""
        st = self._st
        if st is not None and now_s > st.now:
            st.now = now_s

    @property
    def queue_depth(self) -> int:
        """Requests queued on this replica but not yet running — the
        admitted waiting set plus pushed arrivals not yet admitted
        (router/autoscaler gauge; pool state lags the un-admitted tail,
        queue depth must not)."""
        st = self._st
        if st is None:
            return 0
        return len(st.waiting) + (len(st.reqs) - st.i)

    @property
    def in_flight(self) -> int:
        """Queued + running requests currently owned by this replica."""
        st = self._st
        return 0 if st is None else self.queue_depth + len(st.running)

    @property
    def live_metrics(self):
        """The in-progress run's :class:`ServeMetrics` (``None`` when no
        run is open) — fleet gauges read cumulative goodput from it."""
        st = self._st
        return None if st is None else st.metrics

    def advance(self) -> bool:
        """One iteration of the event loop.  Returns ``False`` once
        nothing can change without external input: the run is drained,
        or every remaining local event is unknown (an external driver
        must push work or the run is over).

        An iteration is a fixed sequence of stages over the run state:
        admit, reap, degrade, schedule, unblock, price, apply, record.
        Reaping and degradation run only on a hardened simulator, and
        unblocking only when no step can run.

        The run's observability context is installed as ambient for the
        extent of the call, so instrumentation sites reached *through*
        the simulator (cost-model pricing, the admission-time tuner)
        report into the same tracer/registry as the serve metrics."""
        st = self._st
        if st is None:
            raise ServeConfigError("advance() called before begin()")
        # a simulator without obs of its own: begin() adopted the
        # context that is still ambient, so there is nothing to swap
        prev = None if _obs() is st.obs else _install_obs(st.obs)
        try:
            if not st.running and not st.waiting and not st.retry_heap \
                    and st.i >= len(st.reqs):
                return False               # drained
            now = st.metrics.now_s = st.now
            # admit: the KV loss due now, then due retries, then arrivals
            fplan = self.faults
            if fplan is not None:
                lost = fplan.lost_fraction(now)
                self.pool.set_lost_fraction(lost)
                if lost > 0.0 and st.obs.metrics.enabled:
                    st.metrics.set_gauge("kv_lost_fraction", lost)
            heap, reqs = st.retry_heap, st.reqs
            while heap and heap[0][0] <= now:
                self._admit(st, heapq.heappop(heap)[2], now)
            while st.i < len(reqs) and reqs[st.i].arrival_s <= now:
                st.i += 1
                self._admit(st, reqs[st.i - 1], now)
            res = self.resilience
            if res is not None:
                self._reap(st, st.running + st.waiting, now)
            if not st.waiting and not st.running:
                # idle: only an arrival or a retry brings work; a fault
                # boundary changes nothing here but the makespan
                nxt = min((t for t in st.queued_times() if t > now),
                          default=None)
                if nxt is None:
                    return False           # everything already terminal
                st.now = nxt
                return True
            if res is not None and res.degrade is not None:
                self._degrade(st, res.degrade)
            self._schedule(st, now)
            if not st.decode_buf and not st.prefill_buf:
                return self._unblock(st, now)
            fault = self._price(st, now)
            self._apply(st, fault)
            self._record(st, now, fault)
            return True
        finally:
            if prev is not None:
                _install_obs(prev)

    # -- the stages of one step, in order -------------------------------
    def _reap(self, st, reqs, now) -> bool:
        """Timeout-cancellation: drop each of *reqs* whose client left
        or whose deadline passed, freeing its KV blocks for work still
        viable.  Returns whether any was dropped."""
        reaped = False
        for req in reqs:
            if req.cancel_s is not None and now >= req.cancel_s:
                self._terminate(st, req, RequestState.CANCELLED,
                                st.metrics.on_cancel)
            elif req.deadline_s is not None and now >= req.deadline_s:
                self._terminate(st, req, RequestState.TIMED_OUT,
                                st.metrics.on_timeout)
            else:
                continue
            reaped = True
        return reaped

    def _degrade(self, st, d) -> None:
        """Enter or leave degraded mode by hysteresis; while degraded,
        cap the queue and drain the KV pool toward its target."""
        waiting, running = st.waiting, st.running
        stressed = len(waiting) > d.queue_hi \
            or self.pool.occupancy >= d.occupancy_hi
        if not st.degraded:
            st.hot = st.hot + 1 if stressed else 0
            if st.hot >= d.enter_after_steps:
                st.degraded, st.hot, st.cool = True, 0, 0
        else:
            st.cool = 0 if stressed else st.cool + 1
            if st.cool >= d.exit_after_steps:
                st.degraded, st.hot, st.cool = False, 0, 0
        if not st.degraded:
            return
        # cap the queue: overflow is shed lowest-SLO-class, newest first
        while d.shed_queue_cap is not None \
                and len(waiting) > d.shed_queue_cap:
            self._terminate(st, self.scheduler.pick_shed(waiting),
                            RequestState.SHED, st.metrics.on_shed)
        # reduced-KV mode: drain toward target occupancy (at most one
        # preemption per iteration, so the batch cannot collapse)
        if d.kv_target_occupancy is not None and len(running) > 1 \
                and self.pool.occupancy > d.kv_target_occupancy:
            victim = self.scheduler.pick_victim(running)
            if victim is not None:
                self._preempt(st, victim)

    def _schedule(self, st, now) -> None:
        """Order the queue, plan the batch, and fill the step buffers:
        decodes that secured a block (preempting if needed) and prefill
        chunks that fit the pool (deferred if it is full)."""
        waiting = st.waiting
        if len(waiting) > 1:
            st.waiting = waiting = self.scheduler.order_waiting(waiting)
        # only _degrade sets st.degraded, so the policy is there
        budget = self.resilience.degrade.token_budget if st.degraded \
            else None
        plan = self.batcher.plan(st.running, waiting, token_budget=budget)
        decode = st.decode_buf
        del decode[:]
        for req in plan.decode:
            if req.state is RequestState.PREEMPTED:
                continue                   # lost its cache this step
            if self._ensure_blocks(st, req, req.cached + 1):
                decode.append(req)
        prefill = st.prefill_buf
        del prefill[:]
        for req, chunk in plan.prefill:
            target = req.total_tokens if self.batcher.reserve_full \
                else req.cached + chunk
            if self.batcher.reserve_full:
                if not self.pool.can_reserve(req.rid, target):
                    continue
                self.pool.reserve(req.rid, target)
                self.pool.grow(req.rid, req.cached + chunk)
            else:
                if not self.pool.can_grow(req.rid, target):
                    continue
                self.pool.grow(req.rid, target)
            prefill.append((req, chunk, chunk >= req.prefill_remaining))
            if st.timing:
                st.sched_ts.setdefault(req.rid, now)

    def _unblock(self, st, now) -> bool:
        """No step can run: reclaim stalled prefills, jump the clock to
        the next event, or shed through the watchdog; the baseline
        surfaces a true deadlock as a typed error with the state."""
        waiting, running = st.waiting, st.running
        holders = [r for r in waiting if r.cached > 0]
        if holders and not running:
            # pool full of stalled partial prefills: reclaim them
            for req in holders:
                self._preempt(st, req)
            return True
        nxt = self._next_event(st, now)
        if nxt is not None:
            st.now = nxt                   # blocked until next event
            return True
        res = self.resilience
        if res is not None and res.watchdog:
            victim = self.scheduler.pick_shed(waiting + running)
            if victim is not None:
                self._terminate(st, victim, RequestState.SHED,
                                st.metrics.on_shed)
                return True
        raise DeadlockError(
            "serving deadlock: no step schedulable and no "
            "future event can unblock it", snapshot=self._snapshot(st))

    def _price(self, st, now) -> str | None:
        """Price the step (the memoized cost model re-prices only the
        decode KV stream), stretch it by the straggler multiplier, draw
        step failure and silent data corruption, and advance the clock
        by the step.  Returns the step's fault: ``None``, ``"failed"``,
        or an SDC outcome (``"corrected"``, ``"redo"``, ``"silent"``)."""
        chunks = st.chunk_buf
        del chunks[:]
        n_emit = len(st.decode_buf)
        for req, c, completing in st.prefill_buf:
            chunks.append((c, req.cached))
            if completing and req.generated == 0:
                n_emit += 1
        contexts = st.ctx_buf
        del contexts[:]
        for r in st.decode_buf:
            contexts.append(r.cached)
        dt = self.cost.step_seconds(chunks, contexts, n_emit)
        fault = None
        fplan = self.faults
        if fplan is not None:
            mult = fplan.multiplier(now)   # stragglers stretch steps
            dt *= mult
            if fplan.step_fails(st.steps, now):
                fault = "failed"
            if mult != 1.0 and st.obs.metrics.enabled:
                st.obs.inc("fault_injections", kind="straggler_step")
        sdc = self.sdc
        if fault is None and sdc is not None \
                and sdc.step_corrupts(st.steps, now):
            if st.obs.metrics.enabled:
                st.obs.inc("fault_injections", kind="sdc")
            if self.resilience is not None:
                # hardened: ABFT checksums catch the corruption before
                # any token leaves the step
                st.metrics.on_sdc_detected()
                if sdc.correctable(st.steps):
                    st.metrics.on_sdc_corrected()
                    fault = "corrected"   # fixed in place
                else:
                    fault = "redo"        # roll back, recompute the step
            else:
                fault = "silent"          # undefended: tokens are tainted
        st.now = st.metrics.now_s = now + dt
        return fault

    def _apply(self, st, fault) -> None:
        """Roll a lost step back, or taint and then commit its decode
        and prefill effects at the advanced clock."""
        now = st.now
        decode, prefill = st.decode_buf, st.prefill_buf
        if fault in ("failed", "redo"):
            # transient step failure (or detected-uncorrectable SDC):
            # the wall time is spent but the work is lost — token
            # accounting rolls back, the blocks stay held for the redo
            if fault == "failed":
                st.metrics.on_step_failure()
            else:
                st.metrics.on_sdc_recomputed()
            for req in decode:
                self.pool.roll_back_tokens(req.rid, req.cached)
            for req, _, _ in prefill:
                self.pool.roll_back_tokens(req.rid, req.cached)
            return
        if fault == "silent":
            # no defense: the corrupted output flows into every
            # request this step touched
            st.metrics.on_sdc_silent()
            for req in decode:
                req.tainted = True
            for req, _, _ in prefill:
                req.tainted = True
        for req in decode:
            req.cached += 1
            req.generated += 1
            req.token_times.append(now)
            if req.done:
                self._finish(st, req, now)
        for req, chunk, completing in prefill:
            req.cached += chunk
            req.state = RequestState.PREFILL
            if completing:
                if req.generated == 0:  # prompt pass emits token 1
                    req.generated = 1
                    req.first_token_s = now
                    req.token_times.append(now)
                req.state = RequestState.DECODE
                st.waiting.remove(req)
                st.running.append(req)
                if req.done:
                    self._finish(st, req, now)

    def _record(self, st, step_start, fault) -> None:
        """Sample the step, mirror the pool gauge, emit the step span
        and enforce the step budget."""
        now, obs = st.now, st.obs
        st.metrics.sample(now, len(st.waiting),
                          len(st.decode_buf) + len(st.prefill_buf),
                          self.pool.occupancy, self.pool.fragmentation)
        if obs.metrics.enabled:
            st.metrics.set_gauge("kv_free_blocks", self.pool.free_blocks)
        if st.timing:
            obs.tracer.complete("step", step_start, now,
                                track=self.step_track,
                                decode=len(st.decode_buf),
                                prefill=len(st.prefill_buf),
                                failed=fault == "failed",
                                sdc=fault not in (None, "failed"))
        st.steps += 1
        if st.steps > st.max_steps:
            raise StepBudgetError(
                f"simulation exceeded {st.max_steps} steps",
                snapshot=self._snapshot(st))

    def evacuate(self) -> list:
        """Replica death: release every KV block and hand back every
        non-terminal request, reset for re-prefill elsewhere.  The run
        stays open so :meth:`finish` can still report what this replica
        completed before dying.  Returns the survivors in deterministic
        order (running, waiting, backed-off retries, un-admitted)."""
        st = self._st
        if st is None:
            return []
        survivors = (list(st.running) + list(st.waiting)
                     + [req for _, _, req in sorted(
                         st.retry_heap, key=lambda e: (e[0], e[1]))]
                     + st.reqs[st.i:])
        st.running.clear()
        st.waiting.clear()
        st.retry_heap.clear()
        st.i = len(st.reqs)
        out = [req for req in survivors
               if self._hand_back(req, st.metrics.on_failover)]
        self.pool.set_lost_fraction(0.0)
        return out

    def withdraw(self, rid: int):
        """Pull one non-terminal request back out of this replica — the
        targeted sibling of :meth:`evacuate`, used by the fleet guard to
        cancel a hedge loser or move work off a suspected replica.  Its
        KV blocks are released and its cache reset (it must re-prefill
        wherever it lands next).  Returns the request, or ``None`` if
        this replica no longer owns a live request with that rid."""
        st = self._st
        if st is None:
            return None
        heap = st.retry_heap
        for box, first in ((st.running, 0), (st.waiting, 0), (heap, 0),
                           (st.reqs, st.i)):
            for j in range(first, len(box)):
                req = box[j][2] if box is heap else box[j]
                if req.rid == rid:
                    del box[j]
                    if box is heap:
                        heapq.heapify(heap)
                    if req.terminal:
                        return None
                    self._hand_back(req, st.metrics.on_withdraw)
                    return req
        return None

    def finish(self) -> ServeReport:
        """Close the run and report.  The incremental engine's terminal
        step — :meth:`run` is exactly begin + advance-until-done +
        finish."""
        st = self._st
        if st is None:
            raise ServeConfigError("finish() called before begin()")
        self._st = None
        if st.timing:
            self._emit_timelines(st.obs.tracer, st.reqs, st.admit_ts,
                                 st.sched_ts, st.now)
        return ServeReport(
            summary=st.metrics.summary(st.now),
            metrics=st.metrics,
            requests=tuple(st.reqs),
            config_name=self.config.name,
            machine_name=self.machine.name,
            stack_name=self.stack_name,
            batcher_name=self.batcher.name,
            n_steps=st.steps,
            replica_id=self.replica_id)

    def _emit_timelines(self, tracer, reqs, admit_ts, sched_ts,
                        end_s) -> None:
        """One simulated-time track per request: an enclosing ``request``
        span with ``queued``/``prefill``/``decode`` phases inside it
        (preemption instants were emitted live by the metrics mirror)."""
        for r in reqs:
            track = self._req_track(r.rid)
            finish = r.finish_s if r.finish_s is not None else end_s
            tracer.complete("request", r.arrival_s, finish, track=track,
                            state=r.state.value, prompt=r.prompt_tokens,
                            generated=r.generated,
                            preemptions=r.preemptions)
            admit = admit_ts.get(r.rid)
            if admit is not None:
                tracer.instant("admit", track=track, ts=admit)
            sched = sched_ts.get(r.rid)
            if sched is None:
                continue
            queued_from = admit if admit is not None else r.arrival_s
            if sched > queued_from:
                tracer.complete("queued", queued_from, sched, track=track)
            first = r.first_token_s
            if first is None:
                continue
            tracer.complete("prefill", sched, first, track=track)
            if r.finish_s is not None and r.finish_s > first:
                tracer.complete("decode", first, r.finish_s, track=track,
                                tokens=r.generated)

    # -- admission, reaping, recovery -----------------------------------
    def _validate(self, requests) -> list:
        reqs = list(requests)
        if not reqs:
            raise ServeConfigError(
                "request trace is empty: a serving run needs at least "
                "one request")
        seen = set()
        for r in reqs:
            if r.arrival_s < 0:
                raise ServeConfigError(
                    f"request {r.rid} has negative arrival time "
                    f"{r.arrival_s!r}")
            if r.prompt_tokens <= 0:
                raise ServeConfigError(
                    f"request {r.rid} has non-positive prompt_tokens "
                    f"{r.prompt_tokens!r}")
            if r.max_new_tokens <= 0:
                raise ServeConfigError(
                    f"request {r.rid} has non-positive max_new_tokens "
                    f"{r.max_new_tokens!r}")
            if r.rid in seen:
                raise ServeConfigError(
                    f"duplicate request id {r.rid}: rids must be unique "
                    f"within one trace")
            seen.add(r.rid)
        return sorted(reqs, key=lambda r: (r.arrival_s, r.rid))

    def _admit(self, st, req, now) -> None:
        res = self.resilience
        if res is not None:
            # a retry can come due after its client left or its SLO died
            if self._reap(st, (req,), now):
                return
            d = res.degrade
            if st.degraded and d is not None \
                    and d.max_new_tokens_clamp is not None \
                    and req.max_new_tokens > d.max_new_tokens_clamp:
                req.max_new_tokens = max(d.max_new_tokens_clamp, 1)
                if not req.degraded:
                    req.degraded = True
                    st.metrics.on_degrade(req)
        if self.pool.fits(req.total_tokens):    # else never servable
            if self.scheduler.admit(req, st.waiting, self.pool):
                req.state = RequestState.QUEUED
                st.waiting.append(req)
                if st.timing:
                    st.admit_ts.setdefault(req.rid, now)
                return
            retry = res.retry if res is not None else None
            if retry is not None and req.attempts + 1 < retry.max_attempts:
                req.attempts += 1
                req.state = RequestState.QUEUED
                due = now + retry.delay_s(req.rid, req.attempts)
                heapq.heappush(st.retry_heap, (due, req.rid, req))
                st.metrics.on_retry(req)
                return
        req.state = RequestState.REJECTED
        st.metrics.on_reject(req)

    def _next_event(self, st, now) -> float | None:
        """Earliest future time anything can change: an arrival, a retry
        coming due, or a fault window opening/closing."""
        times = st.queued_times()
        if self.faults is not None:
            b = self.faults.next_boundary(now)
            if b is not None:
                times.append(b)
        future = [t for t in times if t > now]
        return min(future) if future else None

    def _terminate(self, st, req, state, hook) -> None:
        self.pool.release(req.rid)
        if req in st.running:
            st.running.remove(req)
        if req in st.waiting:
            st.waiting.remove(req)
        req.state = state
        hook(req)

    def _snapshot(self, st) -> dict:
        """Diagnosable state at failure time (attached to ServeError)."""
        return {
            "now_s": st.now,
            "steps": st.steps,
            "n_waiting": len(st.waiting),
            "n_running": len(st.running),
            "waiting_rids": [r.rid for r in st.waiting][:16],
            "running_rids": [r.rid for r in st.running][:16],
            "pool": {**asdict(self.pool.stats()),
                     "free_blocks": self.pool.free_blocks,
                     "lost_blocks": self.pool.lost_blocks},
            "n_finished": st.metrics.n_finished,
            "n_rejected": st.metrics.n_rejected,
            "n_timed_out": st.metrics.n_timed_out,
            "n_cancelled": st.metrics.n_cancelled,
            "n_shed": st.metrics.n_shed,
        }

    # -- helpers --------------------------------------------------------
    def _ensure_blocks(self, st, req, new_total) -> bool:
        """Make the pool able to grow *req*; preempt victims if needed."""
        while not self.pool.can_grow(req.rid, new_total):
            victim = self.scheduler.pick_victim(
                [r for r in st.running if r is not req],
                protect=st.decode_buf)
            if victim is None:
                # no running victim: reclaim a stalled partial prefill
                holders = [r for r in st.waiting
                           if r.cached > 0 and r is not req]
                victim = self.scheduler.pick_victim(holders,
                                                    protect=st.decode_buf)
            if victim is None:
                return False
            self._preempt(st, victim)
        self.pool.grow(req.rid, new_total)
        return True

    def _preempt(self, st, victim) -> None:
        self.pool.release(victim.rid)
        victim.cached = 0
        victim.state = RequestState.PREEMPTED
        victim.preemptions += 1
        if victim in st.running:
            st.running.remove(victim)
            st.waiting.append(victim)
        st.metrics.on_preempt(victim)

    def _finish(self, st, req, now) -> None:
        req.state = RequestState.FINISHED
        req.finish_s = now
        self.pool.release(req.rid)
        st.running.remove(req)
        st.metrics.on_finish(req)

    def _hand_back(self, req, hook) -> bool:
        """Release *req*'s KV blocks and reset its cache; unless it is
        terminal, ready it to re-prefill on its next owner and report
        the move to *hook*.  Returns whether it was handed back."""
        self.pool.release(req.rid)
        req.cached = 0
        if req.terminal:
            return False
        if req.state is not RequestState.QUEUED:
            req.state = RequestState.PREEMPTED
        req.failovers += 1
        hook(req)
        return True
