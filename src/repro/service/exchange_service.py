"""Multi-tenant exchange service: many sorts, one autoscaled substrate.

Every experiment so far provisions its exchange substrate *per job*: a
sort shows up, a relay fleet boots (or a warm one is dedicated), the
sort runs, the fleet dies.  That is how the paper's one-shot pipelines
work, but it is not how a shared service would: per-job provisioning
pays every fleet's minimum billed seconds, leaves instances idle
between a tenant's jobs, and makes concurrent tenants trivially
isolated only because nothing is ever shared.

:class:`ExchangeService` is the opposite deployment shape — a
long-running driver-side control plane that admits sort jobs from many
tenants against **one shared, autoscaling relay fleet**:

* **admission control** — a bounded FIFO queue with per-tenant
  fair-share token buckets (the per-VM ``FairShareLink`` discipline,
  lifted to the fleet): a noisy tenant's burst queues behind its own
  refill rate while other tenants' jobs skip ahead, so no tenant can
  starve another, and a full queue rejects at submit time
  (:class:`ServiceSaturated`) instead of queueing unboundedly;
* **tenant fencing** — each job runs under scope ``tenant/job-id``
  stamped on every worker's relay client;
  :meth:`ExchangeService.cancel_tenant` fences exactly those scopes
  (:meth:`~repro.cloud.vm.relay.PartitionRelay.cancel_scope`), so a
  tenant's cancel storm can never reclaim another tenant's
  reservations;
* **autoscaling** — the fleet is resized from observed demand (queued
  plus running logical bytes) by
  :func:`~repro.shuffle.adaptive.plan_fleet_scale`.  Scaling rotates
  **generations**: a new warm fleet serves subsequently dispatched
  jobs while the old one drains its running jobs and terminates —
  rotating instead of mutating keeps every in-flight sort's key→shard
  rendezvous stable.  Instances are billed per second from provision
  to terminate, so right-sizing is directly visible in dollars;
* **cost attribution** — every job's function invocations carry
  ``tenant``/``job`` billing tags
  (:class:`~repro.executor.FunctionExecutor` ``billing_tags``), a
  fleet generation's dollars are the instance lines of its shard VMs
  (each carries its ``vm`` tag), and
  :meth:`ExchangeService.tenant_costs` apportions each generation's
  dollars over the tenants' byte-second usage of it — the sum over
  tenants equals the fleet total to the cent.

Jobs run in consume mode: reducers' pulls take crash-safe
read-leases (reinstated if the attempt dies, applied at activation
commit), so the shared fleet's memory self-reclaims between jobs
without sacrificing retry correctness.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as t

from repro.cas import output_digest
from repro.cloud.environment import Cloud
from repro.cloud.vm.fleet import RelayFleet, fleet_ready
from repro.errors import ReproError, ShuffleError
from repro.obs.metrics import registry as metrics_registry
from repro.executor.executor import FunctionExecutor
from repro.shuffle.adaptive import FleetScaleDecision, plan_fleet_scale
from repro.shuffle.records import RecordCodec
from repro.shuffle.operator import ShuffleSort
from repro.shuffle.planner import ShuffleCostModel
from repro.shuffle.relay import ShardedRelayExchange
from repro.shuffle.relayplanner import SHARD_IMBALANCE_HEADROOM, required_relay_fleet
from repro.sim import SimEvent, TokenBucket


#: Bucket every job's executor stages its function payloads in.
STAGING_BUCKET = "svc-staging"
#: Admission bound: :meth:`ExchangeService.submit` raises
#: :class:`ServiceSaturated` when this many jobs are queued.
QUEUE_LIMIT = 32
#: Per-tenant admission token bucket: refill rate (jobs/second) and
#: burst depth.  A tenant submitting faster than the refill rate queues
#: behind its own bucket while others skip ahead.
TENANT_RATE_PER_S = 0.05
TENANT_BURST = 2.0


class ServiceSaturated(ReproError):
    """The service's admission queue is full; resubmit later."""


@dataclasses.dataclass
class JobHandle:
    """One submitted sort job, observable through its whole lifecycle."""

    job_id: str
    tenant: str
    bucket: str
    key: str
    logical_bytes: float
    workers: int
    out_bucket: str
    #: ``queued`` → ``running`` → ``done`` | ``failed`` | ``cancelled``.
    state: str
    submitted_at: float
    done: SimEvent
    started_at: float | None = None
    finished_at: float | None = None
    result: t.Any = None
    error: BaseException | None = None
    #: sha256 (truncated) over the sorted runs, for parity assertions.
    output_digest: str | None = None
    generation_id: int | None = None

    @property
    def scope(self) -> str:
        """Fencing scope: tenant-qualified so cancels stay tenant-local."""
        return f"{self.tenant}/{self.job_id}"

    @property
    def out_prefix(self) -> str:
        """Key-prefix namespace of this job's exchange traffic."""
        return f"svc/{self.job_id}"

    @property
    def queue_wait_s(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def latency_s(self) -> float | None:
        """Submit-to-finish wall time (queue wait included)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


@dataclasses.dataclass
class _Generation:
    """One fleet incarnation; jobs pin the generation they started on."""

    gen_id: int
    fleet: RelayFleet
    shards: int
    provisioned_at: float
    refs: int = 0
    retired: bool = False
    terminated_at: float | None = None
    #: Per-tenant byte-seconds of fleet occupancy, for cost apportioning.
    tenant_byte_s: dict[str, float] = dataclasses.field(default_factory=dict)


class ExchangeService:
    """Admit many tenants' sorts onto one shared autoscaling relay fleet.

    Parameters
    ----------
    cloud:
        The region everything runs in.
    codec:
        Record format of every submitted job's input object.
    instance_type:
        Relay VM flavour (pinned — shard count is the scaling axis).
    max_shards:
        Fleet size bound; the service starts at one shard.
    memory_mb:
        Function memory of every job's workers.
    cost:
        Base cost model copied per job with ``consume`` on (crash-safe
        read-leases, so the shared fleet's memory self-reclaims); also
        carries ``rebalance``.

    Admission queues at most :data:`QUEUE_LIMIT` jobs and meters each
    tenant through a :data:`TENANT_RATE_PER_S` / :data:`TENANT_BURST`
    token bucket.  The autoscaler sizes for balanced partitions with
    :func:`~repro.shuffle.adaptive.plan_fleet_scale`'s hysteresis, and
    every job runs :meth:`~repro.shuffle.operator.ShuffleSort.sort` at
    the worker count it was submitted with.
    """

    def __init__(
        self,
        cloud: Cloud,
        codec: RecordCodec,
        *,
        instance_type: str,
        max_shards: int = 8,
        memory_mb: int = 2048,
        cost: ShuffleCostModel | None = None,
    ):
        self.cloud = cloud
        self.sim = cloud.sim
        self.codec = codec
        self.instance_type = instance_type
        self.max_shards = max_shards
        self.memory_mb = memory_mb
        self.cost = cost if cost is not None else ShuffleCostModel()

        self._queue: collections.deque[JobHandle] = collections.deque()
        self._running: dict[str, JobHandle] = {}
        self._buckets: dict[str, t.Any] = {}
        self._generations: list[_Generation] = []
        self._current: _Generation | None = None
        self._job_seq = 0
        self._gen_seq = 0
        self._started = False
        self._stopped = False
        self._wake_event: SimEvent | None = None
        #: One dict per rotation: time, direction, shard counts, demand.
        self.scale_events: list[dict] = []
        #: All handles ever submitted, in submit order.
        self.jobs: list[JobHandle] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Provision the initial fleet generation and start dispatching."""
        if self._started:
            raise ShuffleError("ExchangeService already started")
        self._started = True
        self._provision_generation(1)
        self.sim.process(self._dispatch_loop(), name="svc.dispatch")

    def shutdown(self) -> None:
        """Stop dispatching and terminate every live fleet generation.

        Queued jobs are cancelled; running jobs should be drained first
        (:meth:`drain`) — shutting down under them tears their substrate
        away.
        """
        self._stopped = True
        while self._queue:
            self._finish(self._queue.popleft(), "cancelled")
        for generation in self._generations:
            if generation.terminated_at is None:
                self._terminate_generation(generation)
        self._wake()

    def drain(self) -> SimEvent:
        """Event that fires once every admitted job has left the system."""

        def waiter() -> t.Generator:
            while self._queue or self._running:
                pending = [job.done for job in self._queue]
                pending += [job.done for job in self._running.values()]
                yield self.sim.any_of(pending)
            return None

        return self.sim.process(waiter(), name="svc.drain").completion

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        bucket: str,
        key: str,
        logical_bytes: float,
        workers: int,
        out_bucket: str | None = None,
    ) -> JobHandle:
        """Admit one sort job; returns its handle immediately.

        ``logical_bytes`` is the tenant's declared exchange size (the
        resource request every cluster scheduler asks for); the sort's
        own preflight still validates the real object against the
        fleet; the sort runs with ``workers`` mappers and reducers.
        Raises :class:`ServiceSaturated` when the queue is full, and
        :class:`~repro.errors.ShuffleError` for a job that could never
        run: no positive size, fewer than one worker, or no fleet within
        ``max_shards`` that could hold it.
        """
        if not self._started or self._stopped:
            raise ShuffleError("ExchangeService is not running")
        if logical_bytes <= 0:
            raise ShuffleError(
                f"logical_bytes must be positive, got {logical_bytes}"
            )
        if workers < 1:
            raise ShuffleError(f"workers must be >= 1, got {workers}")
        if len(self._queue) >= QUEUE_LIMIT:
            raise ServiceSaturated(
                f"admission queue is full ({QUEUE_LIMIT} jobs); "
                f"tenant {tenant!r} must resubmit later"
            )
        # Fail fast on jobs no feasible fleet holds (raises ShuffleError).
        required_relay_fleet(
            logical_bytes,
            self.cloud.profile,
            instance_type_name=self.instance_type,
            max_shards=self.max_shards,
        )
        self._job_seq += 1
        job = JobHandle(
            job_id=f"job-{self._job_seq}",
            tenant=tenant,
            bucket=bucket,
            key=key,
            logical_bytes=float(logical_bytes),
            workers=workers,
            out_bucket=out_bucket if out_bucket is not None else bucket,
            state="queued",
            submitted_at=self.sim.now,
            done=SimEvent(self.sim, name=f"svc.job.{self._job_seq}.done"),
        )
        self.jobs.append(job)
        self._queue.append(job)
        reg = metrics_registry()
        reg.counter(
            "repro_service_jobs_submitted_total",
            "Jobs accepted by the admission queue.",
        ).inc(tenant=tenant)
        self._publish_admission_metrics()
        self._maybe_scale("submit")
        self._wake()
        return job

    def _publish_admission_metrics(self) -> None:
        """Refresh the admission-control gauges in the metrics registry."""
        reg = metrics_registry()
        depth = reg.gauge(
            "repro_service_admission_queue_depth",
            "Jobs waiting in the service admission queue.",
        )
        depth.set(float(len(self._queue)))
        depth.max(float(len(self._queue)), peak="true")
        tokens = reg.gauge(
            "repro_service_tenant_tokens",
            "Per-tenant admission token-bucket level.",
        )
        for tenant, bucket in self._buckets.items():
            tokens.set(bucket.tokens, tenant=tenant)

    def cancel_tenant(self, tenant: str) -> dict:
        """Cancel everything one tenant has in the system.

        Queued jobs leave the queue unbilled; running jobs have their
        scope fenced fleet-wide — every reservation those attempts hold
        is reclaimed and their stragglers bounce off the fence — while
        other tenants' jobs keep every byte they reserved.
        """
        cancelled_queued = [job for job in self._queue if job.tenant == tenant]
        for job in cancelled_queued:
            self._queue.remove(job)
            self._finish(job, "cancelled")
        reclaimed = 0.0
        fenced = []
        for job in list(self._running.values()):
            if job.tenant != tenant:
                continue
            generation = self._generation_by_id(job.generation_id)
            reclaimed += generation.fleet.cancel_scope(job.scope)
            fenced.append(job.job_id)
        self._maybe_scale("cancel")
        self._wake()
        return {
            "tenant": tenant,
            "cancelled_queued": len(cancelled_queued),
            "fenced_running": fenced,
            "reclaimed_bytes": reclaimed,
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def current_shards(self) -> int:
        return self._current.shards if self._current is not None else 0

    def fleet_cost_usd(self) -> float:
        """Total dollars of every generation's instance lines."""
        total = 0.0
        for generation in self._generations:
            total += self._generation_usd(generation)
        return total

    def _generation_usd(self, generation: _Generation) -> float:
        """Dollars of the ``vm`` lines of ``generation``'s shard VMs."""
        vm_ids = {shard.vm.vm_id for shard in generation.fleet.shards}
        return sum(
            line.usd
            for line in self.cloud.meter.filtered(service="vm")
            if dict(line.tags).get("vm") in vm_ids
        )

    def tenant_costs(self) -> dict[str, dict[str, float]]:
        """Per-tenant dollars: tagged function lines + fleet share.

        The function side is exact — every activation's gb-seconds carry
        the tenant's billing tag.  The storage requests its workers make
        carry no tenant tag and are in neither side.  Each
        fleet generation's instance dollars are apportioned over the
        tenants' byte-seconds of occupancy on that generation; a
        generation nobody used (pure idle capacity) is split evenly so
        the sum over tenants always equals the fleet total.
        """
        tenants = sorted({job.tenant for job in self.jobs})
        out = {
            tenant: {"faas_usd": 0.0, "fleet_usd": 0.0, "total_usd": 0.0}
            for tenant in tenants
        }
        for tenant in tenants:
            out[tenant]["faas_usd"] = sum(
                line.usd
                for line in self.cloud.meter.filtered(service="faas", tenant=tenant)
            )
        for generation in self._generations:
            gen_usd = self._generation_usd(generation)
            if gen_usd == 0.0:
                continue
            weights = generation.tenant_byte_s
            total_weight = sum(weights.values())
            if total_weight > 0:
                for tenant, weight in weights.items():
                    out.setdefault(
                        tenant,
                        {"faas_usd": 0.0, "fleet_usd": 0.0, "total_usd": 0.0},
                    )
                    out[tenant]["fleet_usd"] += gen_usd * weight / total_weight
            elif tenants:
                for tenant in tenants:
                    out[tenant]["fleet_usd"] += gen_usd / len(tenants)
        for entry in out.values():
            entry["total_usd"] = entry["faas_usd"] + entry["fleet_usd"]
        return out

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _bucket_for(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.sim,
                rate=TENANT_RATE_PER_S,
                capacity=TENANT_BURST,
                name=f"svc.tenant.{tenant}",
            )
            self._buckets[tenant] = bucket
        return bucket

    def _admission_budget(self) -> float:
        """Aggregate logical bytes the current generation safely admits."""
        assert self._current is not None
        return self._current.fleet.capacity_bytes / SHARD_IMBALANCE_HEADROOM

    def _inflight_bytes(self) -> float:
        current = self._current
        return sum(
            job.logical_bytes
            for job in self._running.values()
            if current is not None and job.generation_id == current.gen_id
        )

    def _pick_dispatchable(self) -> JobHandle | None:
        """First FIFO job whose tenant has a token and whose bytes fit.

        Skip-ahead keeps a token-less tenant's backlog from head-of-line
        blocking everyone else; FIFO among token-holders plus bounded
        refill rates bound every tenant's wait.
        """
        budget = self._admission_budget() - self._inflight_bytes()
        for job in self._queue:
            # Tolerance mirrors TokenBucket._pump's: an analytically
            # refilled bucket lands epsilon short of 1.0, and a strict
            # check would spin on a zero-advance timeout.
            if self._bucket_for(job.tenant).tokens < 1.0 - 1e-9:
                continue
            if self._running and job.logical_bytes > budget:
                continue
            return job
        return None

    def _dispatch_loop(self) -> t.Generator:
        while not self._stopped:
            job = self._pick_dispatchable()
            if job is not None:
                self._queue.remove(job)
                yield self._bucket_for(job.tenant).consume(1.0)
                generation = self._current
                assert generation is not None
                generation.refs += 1
                job.generation_id = generation.gen_id
                job.state = "running"
                job.started_at = self.sim.now
                self._running[job.job_id] = job
                self.sim.process(
                    self._run_job(job, generation),
                    name=f"svc.{job.job_id}",
                )
                continue
            waits = [self._wait_signal()]
            delays = [
                self._bucket_for(job.tenant).estimated_wait(1.0)
                for job in self._queue
            ]
            positive = [delay for delay in delays if delay > 0]
            if positive:
                # Floor the nap: a sub-millisecond refill shortfall must
                # still advance simulated time or the loop livelocks.
                waits.append(self.sim.timeout(max(min(positive), 1e-3)))
            yield self.sim.any_of(waits)

    def _run_job(self, job: JobHandle, generation: _Generation) -> t.Generator:
        executor = FunctionExecutor(
            self.cloud,
            runtime_memory_mb=self.memory_mb,
            bucket=STAGING_BUCKET,
            billing_tags={"tenant": job.tenant, "job": job.job_id},
        )
        cost = dataclasses.replace(self.cost, consume=True)
        operator = ShuffleSort(
            executor, self.codec, backend=ShardedRelayExchange(generation.fleet, cost)
        )
        operator.backend.tenant = job.scope
        try:
            result = yield operator.sort(
                job.bucket,
                job.key,
                out_bucket=job.out_bucket,
                out_prefix=job.out_prefix,
                workers=job.workers,
            )
        except Exception as exc:
            job.error = exc
            state = (
                "cancelled"
                if generation.fleet.scope_fenced(job.scope)
                else "failed"
            )
        else:
            job.result = result
            job.output_digest = output_digest(self.cloud, result)
            state = "done"
        finally:
            busy_s = self.sim.now - (job.started_at or self.sim.now)
            generation.tenant_byte_s[job.tenant] = (
                generation.tenant_byte_s.get(job.tenant, 0.0)
                + job.logical_bytes * busy_s
            )
            del self._running[job.job_id]
            generation.refs -= 1
            self._retire_if_drained(generation)
        self._finish(job, state)
        self._maybe_scale("complete")
        self._wake()

    def _finish(self, job: JobHandle, state: str) -> None:
        job.state = state
        job.finished_at = self.sim.now
        reg = metrics_registry()
        reg.counter(
            "repro_service_jobs_total",
            "Service jobs by terminal state.",
        ).inc(state=state, tenant=job.tenant)
        if job.queue_wait_s is not None:
            reg.histogram(
                "repro_service_queue_wait_seconds",
                "Admission-to-dispatch wait per job.",
            ).observe(job.queue_wait_s)
        if job.latency_s is not None:
            reg.histogram(
                "repro_service_job_latency_seconds",
                "Submit-to-finish latency per job (queue wait included).",
            ).observe(job.latency_s)
        self._publish_admission_metrics()
        if not job.done.triggered:
            job.done.succeed(job)

    # ------------------------------------------------------------------
    # autoscaling (fleet generations)
    # ------------------------------------------------------------------
    def _provision_generation(self, shards: int) -> _Generation:
        fleet = fleet_ready(self.cloud.vms, self.instance_type, shards)
        generation = _Generation(
            gen_id=self._gen_seq,
            fleet=fleet,
            shards=shards,
            provisioned_at=self.sim.now,
        )
        self._gen_seq += 1
        self._generations.append(generation)
        self._current = generation
        return generation

    def _terminate_generation(self, generation: _Generation) -> None:
        if generation.terminated_at is not None:
            return
        generation.terminated_at = self.sim.now
        generation.fleet.terminate()

    def _retire_if_drained(self, generation: _Generation) -> None:
        if (
            generation.retired
            and generation.refs == 0
            and generation.terminated_at is None
        ):
            self._terminate_generation(generation)

    def _demand_bytes(self) -> float:
        return sum(job.logical_bytes for job in self._queue) + sum(
            job.logical_bytes for job in self._running.values()
        )

    def _maybe_scale(self, trigger: str) -> None:
        if self._stopped or self._current is None:
            return
        decision = plan_fleet_scale(
            self._demand_bytes(),
            self.cloud.profile,
            self._current.shards,
            self.instance_type,
            max_shards=self.max_shards,
        )
        if decision is None or decision.shards == self._current.shards:
            return
        self._rotate(decision, trigger)

    def _rotate(self, decision: FleetScaleDecision, trigger: str) -> None:
        old = self._current
        assert old is not None
        old.retired = True
        generation = self._provision_generation(decision.shards)
        self.scale_events.append(
            {
                "time": self.sim.now,
                "direction": decision.direction,
                "from_shards": old.shards,
                "to_shards": decision.shards,
                "trigger": trigger,
                "queue_depth": len(self._queue),
                "demand_bytes": self._demand_bytes(),
                "reason": decision.reason,
            }
        )
        generation.fleet.event(
            "service.scale_" + decision.direction,
            from_shards=old.shards, to_shards=decision.shards,
            generation=generation.gen_id, trigger=trigger,
        )
        reg = metrics_registry()
        reg.counter(
            "repro_service_scale_events_total",
            "Fleet generation rotations by direction and trigger.",
        ).inc(direction=decision.direction, trigger=trigger)
        reg.gauge(
            "repro_service_fleet_shards",
            "Relay shards in the current fleet generation.",
        ).set(float(decision.shards))
        # An idle old generation terminates immediately; otherwise it
        # drains its running jobs first (their shard rendezvous must
        # stay stable) and terminates on the last job's exit.
        self._retire_if_drained(old)

    def _generation_by_id(self, gen_id: int | None) -> _Generation:
        for generation in self._generations:
            if generation.gen_id == gen_id:
                return generation
        raise ShuffleError(f"unknown fleet generation {gen_id!r}")

    # ------------------------------------------------------------------
    # dispatcher wake plumbing
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        if self._wake_event is not None and not self._wake_event.triggered:
            self._wake_event.succeed(None)

    def _wait_signal(self) -> SimEvent:
        self._wake_event = SimEvent(self.sim, name="svc.wake")
        return self._wake_event
