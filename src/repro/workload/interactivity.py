"""VCR interactivity: viewer pause/resume behaviour.

The paper lists "interactivity in semi-continuous transmission" as
future work, and Theorem 1 explicitly assumes "the videos are not
paused".  This driver attaches a stochastic pause/resume process to
every admitted stream so that assumption can be relaxed empirically
(EXT-VCR):

* after an exponential delay (mean ``1/pause_hazard``), an active
  viewer hits pause;
* the pause lasts an exponential ``mean_pause_duration``;
* up to ``max_pauses_per_stream`` pause episodes per stream.

While paused, consumption freezes and the minimum-flow floor is
exempted once the staging buffer fills (see
:meth:`repro.cluster.request.Request.pause_playback` and the allocator
base pass) — transmission workahead may continue until then, which is
exactly the paper's "delay switching till resources … become available"
adaptation observation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.controller import DistributionController
from repro.cluster.request import Request, RequestState
from repro.core.admission import AdmissionOutcome
from repro.sim.engine import Engine


class InteractivityModel:
    """Attach stochastic pause/resume behaviour to admitted streams.

    Args:
        engine: the simulation engine.
        controller: the distribution controller; subscribe the model
            to it (``controller.subscribe(model)``) so every admitted
            stream gets a pause process via :meth:`on_decision`.
        rng: dedicated random stream.
        pause_hazard: per-second probability rate of a playing viewer
            pausing (e.g. ``1/1800`` = one pause per half hour watched).
        mean_pause_duration: seconds, exponential.
        max_pauses_per_stream: bound on episodes per stream (None =
            unbounded).
    """

    def __init__(
        self,
        engine: Engine,
        controller: DistributionController,
        rng: np.random.Generator,
        pause_hazard: float,
        mean_pause_duration: float,
        max_pauses_per_stream: Optional[int] = None,
    ) -> None:
        if pause_hazard <= 0:
            raise ValueError(f"pause_hazard must be positive, got {pause_hazard}")
        if mean_pause_duration <= 0:
            raise ValueError(
                f"mean_pause_duration must be positive, got {mean_pause_duration}"
            )
        self.engine = engine
        self.controller = controller
        self.rng = rng
        self.pause_hazard = float(pause_hazard)
        self.mean_pause_duration = float(mean_pause_duration)
        self.max_pauses_per_stream = max_pauses_per_stream
        self.pauses_executed = 0
        self.resumes_executed = 0

    # ------------------------------------------------------------------
    def on_decision(self, outcome: AdmissionOutcome, request: Request) -> None:
        if outcome.accepted:
            self._schedule_pause(request)

    def _schedule_pause(self, request: Request) -> None:
        if (
            self.max_pauses_per_stream is not None
            and request.pauses >= self.max_pauses_per_stream
        ):
            return
        delay = float(self.rng.exponential(1.0 / self.pause_hazard))
        self.engine.schedule(
            delay,
            lambda: self._pause(request),
            kind=f"vcr-pause:req{request.request_id}",
        )

    def _pause(self, request: Request) -> None:
        now = self.engine.now
        # Only streams still server-attached matter to the cluster; a
        # finished stream's pause is purely client-side.
        if request.state is not RequestState.ACTIVE:
            return
        if request.playback_paused:
            return
        if request.bytes_viewed(now) >= request.size:
            return  # playback already over
        request.pause_playback(now)
        self.pauses_executed += 1
        if request.server_id is not None:
            self.controller.managers[request.server_id].reallocate(
                now, changed=request
            )
        gap = float(self.rng.exponential(self.mean_pause_duration))
        self.engine.schedule(
            gap,
            lambda: self._resume(request),
            kind=f"vcr-resume:req{request.request_id}",
        )

    def _resume(self, request: Request) -> None:
        now = self.engine.now
        if not request.playback_paused:
            return
        request.resume_playback(now)
        self.resumes_executed += 1
        if (
            request.state is RequestState.ACTIVE
            and request.server_id is not None
        ):
            self.controller.managers[request.server_id].reallocate(
                now, changed=request
            )
        self._schedule_pause(request)
