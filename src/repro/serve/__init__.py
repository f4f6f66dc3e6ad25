"""repro.serve — the live serving runtime (docs/SERVING.md).

Every other layer of this repository runs in *virtual* time; this
package mounts the same policy core — EFTF scheduling, minimum-flow
admission, DRM migration — on wall-clock asyncio connections:

* :mod:`repro.serve.protocol` — length-prefixed JSON frames (with an
  optional binary payload) spoken over TCP by every component;
* :mod:`repro.serve.bridge` — :class:`~repro.serve.bridge.PolicyBridge`,
  the seam that lets live mode and the simulator share one decision
  path (the sim-vs-live parity contract);
* :mod:`repro.serve.gateway` — the distribution controller: acceptor,
  reorder heap, policy loop, membership reconcile, graceful drain;
* :mod:`repro.serve.pacing` — the data servers: the virtual clock, the
  session table and the per-server loops that frame the EFTF schedule
  as paced chunks (imports neither of its neighbours);
* :mod:`repro.serve.telemetry` — the one snapshot of a gateway's state
  that ``serve.stats`` records, ``ops health`` / ``ops stats``, the run
  summary and ``repro top`` all render from;
* :mod:`repro.serve.loadgen` — a client/load-generator replaying
  :mod:`repro.workload` arrival processes in real time with a
  time-compression factor, maintaining a staging buffer and reporting
  underruns;
* :mod:`repro.serve.ops` — the gateway's live telemetry endpoint: a
  second listener answering ``stats`` / ``health`` / ``sessions`` /
  ``prometheus`` / ``chaos`` ops frames (docs/SERVING.md, "ops
  endpoint");
* :mod:`repro.serve.supervisor` — heartbeat + restart supervision of
  the gateway's loops (docs/ROBUSTNESS.md, "live chaos");
* :mod:`repro.serve.chaos` — the live fault plane: toxic transports,
  deterministic client-side faults, engine-crash mirroring, and
  :func:`run_chaos_serve`, the live leg of ``repro verify``;
* :mod:`repro.serve.top` — ``repro top``, a curses-free dashboard
  over the ops endpoint or a recorded trace.

CLI surface: ``repro serve --scenario FILE``, ``repro loadgen
--scenario FILE``, ``repro verify FILE``, ``repro top`` and ``repro
ops`` (registered through the experiment registry; see
:mod:`repro.experiments.live_serve`,
:mod:`repro.experiments.verify` and
:mod:`repro.experiments.ops_tools`).
"""

from repro.serve.bridge import Decision, ParityError, PolicyBridge
from repro.serve.chaos import (
    ChaosPlane,
    ClientChaos,
    ClientFaultPlan,
    ToxicConfig,
    ToxicReader,
    ToxicWriter,
    run_chaos_serve,
)
from repro.serve.config import ServeConfig
from repro.serve.gateway import ClusterGateway
from repro.serve.loadgen import LoadGenerator, LoadReport, SessionOutcome
from repro.serve.supervisor import TaskKilled, TaskSupervisor
from repro.serve.ops import (
    OPS_VERBS,
    OpsEndpoint,
    format_reply,
    ops_query,
    ops_query_sync,
)
from repro.serve.protocol import (
    Frame,
    FrameError,
    MAX_HEADER_BYTES,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.serve.top import render_top, run_live, run_trace, trace_samples

__all__ = [
    "ChaosPlane",
    "ClientChaos",
    "ClientFaultPlan",
    "ClusterGateway",
    "Decision",
    "Frame",
    "FrameError",
    "LoadGenerator",
    "LoadReport",
    "MAX_HEADER_BYTES",
    "OPS_VERBS",
    "OpsEndpoint",
    "ParityError",
    "PolicyBridge",
    "ServeConfig",
    "SessionOutcome",
    "TaskKilled",
    "TaskSupervisor",
    "ToxicConfig",
    "ToxicReader",
    "ToxicWriter",
    "encode_frame",
    "format_reply",
    "ops_query",
    "ops_query_sync",
    "read_frame",
    "render_top",
    "run_chaos_serve",
    "run_live",
    "run_trace",
    "trace_samples",
    "write_frame",
]
