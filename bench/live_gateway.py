"""The process under test of the ``live_loopback`` workload.

Runs one :class:`ClusterGateway` (ops endpoint off, no tracer) and talks
to ``bench/runners.py`` over its own stdin/stdout, one JSON object per
line:

1. reads ``{"config", "serve", "trace", "setup_reps"}``;
2. times gateway construction + ``start()`` *setup_reps* times on
   throw-away gateways, starts the real one, writes ``{"port", ...}``;
3. waits for any line (or EOF, so a dead parent never leaves it
   running), drains, writes its summary and exits.

CPU and memory are this process's own ``getrusage`` between listening
and drained, so imports and the load generator are not in them.  A
short calibration (see ``hostclock.py``) runs on the gateway's own loop
every 100 ms, ~3 % of one core and at most 3 ms in front of any send;
its CPU is taken out of ``cpu_s`` and its mean gives the factor
(``host_scale``) that turns ``cpu_s`` into reference seconds.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import sys
from contextlib import nullcontext
from time import perf_counter, thread_time

from repro.serve.bridge import decisions_digest
from repro.serve.config import ServeConfig
from repro.serve.gateway import ClusterGateway
from repro.simulation import SimulationConfig

from hostclock import HostClock, cpu_seconds, slowdown
from layers import LayerTrace, counter_metrics, span_metrics
from spans import percentile

#: Wall seconds between calibrations (and ``vt_lag()`` samples).
SAMPLE_INTERVAL = 0.1

#: The in-loop calibration is a tenth of a bracket's: ~3 ms.
LOOP_FRACTION = 0.1


class _Sampler:
    """Host slow-down (on thread CPU time, so a preempted kernel does not
    read as a slow host) and policy-clock lag, every SAMPLE_INTERVAL."""

    def __init__(self, gateway: ClusterGateway) -> None:
        self.gateway = gateway
        self.slowdowns: list = []
        self.lags: list = []
        self.cpu_spent = 0.0

    async def run(self) -> None:
        while True:
            await asyncio.sleep(SAMPLE_INTERVAL)
            t0 = thread_time()
            self.slowdowns.append(slowdown(LOOP_FRACTION, thread_time))
            self.cpu_spent += thread_time() - t0
            self.lags.append(self.gateway.vt_lag())


async def main() -> None:
    spec = json.loads(sys.stdin.readline())
    config = SimulationConfig.from_dict(spec["config"])
    serve = ServeConfig.from_dict(spec["serve"])
    loop = asyncio.get_running_loop()

    clock = HostClock()
    setups = []

    async def listening() -> ClusterGateway:
        leading = clock.open()
        start = perf_counter()
        gateway = ClusterGateway(config, serve)
        await gateway.start()
        wall = perf_counter() - start
        setups.append(wall * clock.scale_since(leading))
        return gateway

    for _ in range(spec["setup_reps"] - 1):
        await (await listening()).stop()

    trace = LayerTrace() if spec["trace"] else None
    with trace if trace is not None else nullcontext():
        gateway = await listening()
        if trace is not None:
            trace.attach(gateway.bridge.engine)
        sampler = _Sampler(gateway)
        sampling = loop.create_task(sampler.run())
        cpu0 = cpu_seconds()
        print(json.dumps({"port": gateway.port, "setup_s": setups}), flush=True)

        await loop.run_in_executor(None, sys.stdin.readline)
        drain0 = perf_counter()
        summary = await gateway.stop()
        drain_s = perf_counter() - drain0
        sampling.cancel()
        try:
            await sampling
        except asyncio.CancelledError:
            pass
        cpu_s = cpu_seconds() - cpu0 - sampler.cpu_spent

    policy = summary["policy"]
    lateness = gateway.registry.histogram("serve.chunk_latency_ms")
    late = lateness.percentiles((50.0, 99.9))
    out = {
        "policy": policy,
        "serve": {
            k: v for k, v in summary["serve"].items()
            if isinstance(v, (int, float))
        },
        "digest": hashlib.sha256(
            decisions_digest(gateway.bridge.decisions).encode()
        ).hexdigest(),
        "utilization": gateway.bridge.controller.metrics.utilization(
            config.system.total_bandwidth, policy["virtual_duration"]
        ),
        "cpu_s": cpu_s,
        "host_scale": (
            len(sampler.slowdowns) / sum(sampler.slowdowns)
            if sampler.slowdowns else 1.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "drain_s": drain_s,
        "chunk_lateness_ms": {
            "n": lateness.count, "p50": late[50.0], "p999": late[99.9],
        },
    }
    if trace is not None:
        trace.profiler.detach()
        layers = span_metrics(trace.totals(), trace, runs=1)
        layers.update(counter_metrics(gateway.bridge.sim))
        layers["serve.gateway.vt_lag_s_p95"] = (
            percentile(sampler.lags, 95.0) if sampler.lags else 0.0
        )
        out["layers"] = layers
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    asyncio.run(main())
