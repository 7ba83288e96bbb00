"""The Lithops-like ``FunctionExecutor``.

Mirrors the Lithops programming model on the simulated cloud:

* ``map(func, iterdata)`` — one serverless call per element;
* ``call_async(func, data)`` — a single call;
* ``map_reduce(map_func, iterdata, reduce_func)`` — map then a reduce
  call over the map results;
* ``get_result`` — wait for every call, then fetch the results.

Data passing is faithful to Lithops-over-COS: the function is pickled
and uploaded once per job, each call's input payload is uploaded as its
own object, and each call writes its pickled result plus a small status
object back to storage.  Those per-call requests are exactly the traffic
that makes object-store ops/s matter in the paper.

Two kinds of user function are supported:

* **plain callables** ``func(data) -> result`` — run verbatim on real
  data; simulated CPU time comes from the optional ``cpu_model``;
* **simulation-aware generator functions** ``func(ctx, data)`` — may
  yield storage and compute effects themselves (used by the shuffle
  operator and the genomics pipeline).
"""

from __future__ import annotations

import inspect
import itertools
import typing as t

from repro.cloud.environment import Cloud
from repro.cloud.faas.context import FunctionContext
from repro.cloud.storageview import BoundStorage
from repro.errors import ExecutorError
from repro.executor.futures import ResponseFuture
from repro.executor.job import JobRecord
from repro.executor.speculation import AttemptHandle, JobSpeculator, SpeculationPolicy
from repro.sim import SimEvent
from repro.storage import paths
from repro.storage.serializer import deserialize, serialize

#: ``cpu_model(data) -> cpu_seconds`` for plain callables.
CpuModel = t.Callable[[t.Any], float]


def next_executor_id(cloud: Cloud, prefix: str) -> str:
    """Deterministic per-region executor ids.

    A module-global counter would leak state across runs and break
    reproducibility (RNG stream names derive from executor ids), so the
    counter lives on the cloud instance.
    """
    counters = getattr(cloud, "_executor_counters", None)
    if counters is None:
        counters = {}
        cloud._executor_counters = counters  # type: ignore[attr-defined]
    counters[prefix] = counters.get(prefix, 0) + 1
    return f"{prefix}-{counters[prefix]}"


class FunctionExecutor:
    """Run Python callables as serverless functions on the simulated cloud.

    Parameters
    ----------
    cloud:
        The simulated region.
    runtime_memory_mb:
        Memory size of the runtime used for all calls from this executor.
    bucket:
        Staging bucket for payloads/results (created if missing).
    billing_tags:
        Extra tags stamped on every gb-second charge this executor's
        runtime incurs (e.g. ``{"tenant": ...}`` for per-tenant cost
        attribution in a shared service).
    """

    def __init__(
        self,
        cloud: Cloud,
        runtime_memory_mb: int = 2048,
        bucket: str = "lithops-staging",
        timeout_s: float | None = None,
        retries: int = 2,
        speculation: SpeculationPolicy | None = None,
        billing_tags: dict[str, str] | None = None,
    ):
        self.cloud = cloud
        self.sim = cloud.sim
        self.runtime_memory_mb = runtime_memory_mb
        self.bucket = bucket
        cloud.store.ensure_bucket(bucket)
        self.executor_id = next_executor_id(cloud, "exec")
        #: Re-invocations allowed per call on *infrastructure* failures
        #: (crashes); application exceptions are never retried.
        self.retries = retries
        #: Default straggler-mitigation policy for map jobs (``None``
        #: disables backup tasks unless a map call opts in).
        self.speculation = speculation
        #: Backup attempts launched across all jobs (see
        #: :mod:`repro.executor.speculation`).
        self.speculative_launches = 0
        self._job_ids = itertools.count(0)
        self.jobs: list[JobRecord] = []
        self._runtime_name = f"repro-runtime-{self.executor_id}-{runtime_memory_mb}mb"
        cloud.faas.register(
            self._runtime_name,
            _runtime_handler,
            memory_mb=runtime_memory_mb,
            timeout_s=timeout_s,
            billing_tags=billing_tags,
        )
        # Driver-side storage client: the workers' retrying client, at
        # the store's full per-connection speed.
        self.storage = BoundStorage(
            cloud.store, None, name=f"{self.executor_id}.driver"
        )

    # ------------------------------------------------------------------
    # submission API (all return SimEvents carrying futures)
    # ------------------------------------------------------------------
    def call_async(
        self,
        func: t.Callable,
        data: object,
        cpu_model: CpuModel | None = None,
        span=None,
    ) -> SimEvent:
        """Submit one call; event → a single :class:`ResponseFuture`."""
        return self.sim.process(
            self._submit_job(func, [data], cpu_model, single=True, span=span),
            name=f"{self.executor_id}.call_async",
        ).completion

    def map(
        self,
        func: t.Callable,
        iterdata: t.Iterable[object],
        cpu_model: CpuModel | None = None,
        speculation: SpeculationPolicy | None = None,
        span=None,
    ) -> SimEvent:
        """Submit one call per element; event → list of futures.

        ``speculation`` (or the executor-level default) enables backup
        tasks for straggling calls; the first attempt to finish wins.
        ``span`` parents every attempt span of this job under the
        caller's wave (threaded explicitly — driver generators
        interleave, so there is no usable ambient "current span").
        """
        return self.sim.process(
            self._submit_job(
                func,
                list(iterdata),
                cpu_model,
                single=False,
                speculation=speculation if speculation is not None else self.speculation,
                span=span,
            ),
            name=f"{self.executor_id}.map",
        ).completion

    def map_reduce(
        self,
        map_func: t.Callable,
        iterdata: t.Iterable[object],
        reduce_func: t.Callable,
        map_cpu_model: CpuModel | None = None,
        reduce_cpu_model: CpuModel | None = None,
    ) -> SimEvent:
        """Map, then reduce over the list of map results.

        Event → the reduce call's single future.  The reducer receives
        the *list of map results* as its input, fetched worker-side from
        the map output objects (data stays in object storage, as in
        Lithops' default map-reduce flow).
        """
        return self.sim.process(
            self._map_reduce(
                map_func, list(iterdata), reduce_func, map_cpu_model, reduce_cpu_model
            ),
            name=f"{self.executor_id}.map_reduce",
        ).completion

    # ------------------------------------------------------------------
    # waiting and results
    # ------------------------------------------------------------------
    def _wait(self, futures: list[ResponseFuture]) -> t.Generator:
        """Wait until every future finished, failed ones included."""
        if futures:
            # Wrap each done_event so failures count as completion rather
            # than failing the aggregate wait.
            def absorb(future: ResponseFuture) -> t.Generator:
                try:
                    yield future.done_event
                except Exception:  # noqa: BLE001 - failure == completion here
                    pass

            absorbed = [
                self.sim.process(absorb(future), name="wait.absorb").completion
                for future in futures
            ]
            yield self.sim.all_of(absorbed)

    def get_result(self, futures: t.Sequence[ResponseFuture] | ResponseFuture) -> SimEvent:
        """Wait for futures and fetch their results from storage.

        Event → a single result (if one future was given) or the list of
        results in input order.  Fails with the first call error.
        """
        single = isinstance(futures, ResponseFuture)
        future_list = [futures] if single else list(futures)
        return self.sim.process(
            self._get_result(future_list, single), name=f"{self.executor_id}.get_result"
        ).completion

    def _get_result(self, futures: list[ResponseFuture], single: bool) -> t.Generator:
        yield from self._wait(futures)
        for future in futures:
            if future.error is not None:
                raise future.error
        results = []
        for future in futures:
            if not future.result_ready:
                if future.output_ref is None:
                    raise ExecutorError("future has no output reference")
                bucket, key = future.output_ref
                payload = yield self.storage.get(bucket, key)
                future._store_result(deserialize(payload))
                future.stats.output_bytes = len(payload)
            results.append(future.result)
        return results[0] if single else results

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _submit_job(
        self,
        func: t.Callable,
        iterdata: list[object],
        cpu_model: CpuModel | None,
        single: bool,
        speculation: SpeculationPolicy | None = None,
        span=None,
    ) -> t.Generator:
        if not iterdata:
            raise ExecutorError("map over empty iterdata")
        job_id = f"J{next(self._job_ids):03d}"
        record = JobRecord(
            job_id=job_id,
            function_name=getattr(func, "__name__", "<callable>"),
            call_count=len(iterdata),
            submitted_at=self.sim.now,
        )
        self.jobs.append(record)
        speculator = None
        if speculation is not None:
            speculator = JobSpeculator(self, speculation)
            speculator.expect_calls(len(iterdata))

        # One function upload per job (Lithops uploads the pickled
        # function+modules once, not per call).
        func_key = f"{paths.job_prefix(self.executor_id, job_id)}/function.pickle"
        func_blob = serialize((func, cpu_model))
        yield self.storage.put(self.bucket, func_key, func_blob)

        futures = []
        for call_id, data in enumerate(iterdata):
            input_key = paths.call_input_key(self.executor_id, job_id, call_id)
            output_key = paths.call_output_key(self.executor_id, job_id, call_id)
            status_key = paths.call_status_key(self.executor_id, job_id, call_id)
            input_blob = serialize(data)
            yield self.storage.put(self.bucket, input_key, input_blob)
            payload = {
                "bucket": self.bucket,
                "func_key": func_key,
                "input_key": input_key,
                "output_key": output_key,
                "status_key": status_key,
            }
            track = f"worker-{call_id:03d}"
            if speculator is not None:
                invocation = speculator.register_primary(
                    call_id, payload, span=span, track=track
                )
            else:
                invocation = self.sim.process(
                    self._invoke_with_retries(payload, span=span, track=track),
                    name=f"{self.executor_id}.{job_id}.{call_id}",
                ).completion
            future = ResponseFuture(
                call_id=call_id,
                job_id=job_id,
                executor_id=self.executor_id,
                done_event=invocation,
                output_ref=(self.bucket, output_key),
            )
            future.stats.submitted_at = self.sim.now
            future.stats.input_bytes = len(input_blob)
            invocation.add_callback(
                lambda _event, f=future: setattr(f.stats, "finished_at", self.sim.now)
            )
            futures.append(future)
            record.futures.append(future)
        return futures[0] if single else futures

    def _invoke_with_retries(
        self,
        payload: dict,
        handle: "AttemptHandle | None" = None,
        span=None,
        track: str | None = None,
        link_spans: t.Sequence[object] = (),
    ) -> t.Generator:
        """Invoke once, re-invoking on infrastructure failures only.

        Crashes (:class:`FunctionCrashed`) are the platform's fault and
        retried up to ``self.retries`` times, Lithops-style.  Anything
        the user function raised passes straight through — as does
        :class:`FunctionCancelled`: a cancelled attempt (the losing side
        of a speculative race) must never resurrect itself by retrying.

        ``handle`` (owned by a :class:`~repro.executor.speculation.JobSpeculator`)
        is kept pointed at the live activation so the speculator can
        cancel this attempt wherever it currently is — including between
        a crash and the relaunch.
        """
        from repro.cloud.faas.errors import FunctionCancelled, FunctionCrashed

        attempt = 0
        while True:
            if handle is not None and handle.cancel_requested:
                raise FunctionCancelled(self._runtime_name, "attempt cancelled")
            activation = self.cloud.faas.launch(
                self._runtime_name,
                payload,
                parent_span=span,
                span_track=track,
                link_spans=link_spans,
            )
            if handle is not None:
                handle.activation_id = activation.activation_id
            try:
                result = yield activation.completion
                return result
            except FunctionCancelled:
                raise
            except FunctionCrashed:
                attempt += 1
                if attempt > self.retries:
                    raise

    def _map_reduce(
        self,
        map_func: t.Callable,
        iterdata: list[object],
        reduce_func: t.Callable,
        map_cpu_model: CpuModel | None,
        reduce_cpu_model: CpuModel | None,
    ) -> t.Generator:
        map_futures = yield from self._submit_job(
            map_func, iterdata, map_cpu_model, single=False
        )
        yield from self._wait(map_futures)
        for future in map_futures:
            if future.error is not None:
                raise future.error
        output_refs = [future.output_ref for future in map_futures]
        reduce_future = yield from self._submit_job(
            _make_reducer(reduce_func),
            [output_refs],
            reduce_cpu_model,
            single=True,
        )
        return reduce_future


def _make_reducer(reduce_func: t.Callable) -> t.Callable:
    """Wrap ``reduce_func`` into a sim-aware call that gathers map outputs."""

    def reducer(ctx: FunctionContext, output_refs: list[tuple[str, str]]) -> t.Generator:
        map_results = []
        for bucket, key in output_refs:
            blob = yield ctx.storage.get(bucket, key)
            map_results.append(deserialize(blob))
        if inspect.isgeneratorfunction(reduce_func):
            result = yield from reduce_func(ctx, map_results)
        else:
            result = reduce_func(map_results)
        return result

    reducer.__name__ = f"reduce:{getattr(reduce_func, '__name__', 'fn')}"
    return reducer


def _runtime_handler(ctx: FunctionContext, invocation: dict) -> t.Generator:
    """The generic worker: fetch function + input, run, store output.

    This is the single FaaS-registered handler through which every
    executor call flows; its storage traffic (1 GET function, 1 GET
    input, 1 PUT output, 1 PUT status) mirrors the Lithops worker.
    """
    bucket = invocation["bucket"]
    func_blob = yield ctx.storage.get(bucket, invocation["func_key"])
    func, cpu_model = deserialize(func_blob)
    input_blob = yield ctx.storage.get(bucket, invocation["input_key"])
    data = deserialize(input_blob)

    if inspect.isgeneratorfunction(func):
        result = yield from func(ctx, data)
    else:
        result = func(data)
        if cpu_model is not None:
            yield ctx.compute(max(0.0, float(cpu_model(data))))

    output_blob = serialize(result)
    yield ctx.storage.put(bucket, invocation["output_key"], output_blob)
    status = {
        "activation_id": ctx.activation_id,
        "input_bytes": len(input_blob),
        "output_bytes": len(output_blob),
        "finished_at": ctx.sim.now,
    }
    yield ctx.storage.put(bucket, invocation["status_key"], serialize(status))
    return status
