"""Tests for the loop clock the live tests run on (tests/conftest.py).

Its two promises, each on a real loopback socket pair: an idle wait
costs no wall time whatever its length, and ready I/O is always served
before the clock skips to a due timer.
"""

from __future__ import annotations

import asyncio
import time

from conftest import LoopClock, loopback_pair, run, teardown


def test_an_hour_of_sleep_takes_no_wall_time():
    async def main():
        loop = asyncio.get_running_loop()
        server, (_, client), (_, peer) = await loopback_pair()
        start, wall = loop.time(), time.perf_counter()
        await asyncio.sleep(3600)
        elapsed = loop.time() - start, time.perf_counter() - wall
        await teardown(server, client, peer)
        return loop, elapsed

    loop, (slept, wall) = run(main())
    assert isinstance(loop, LoopClock)
    assert slept >= 3600
    assert wall < 1.0


def test_ready_io_is_served_before_the_clock_skips():
    # A ping-pong over the pair while an hour-long timer is due: every
    # exchange completes at once, and the clock skips only when the
    # sockets fall silent.
    async def main():
        loop = asyncio.get_running_loop()
        server, (ping_r, ping_w), (pong_r, pong_w) = await loopback_pair()
        start = loop.time()
        timer = asyncio.ensure_future(asyncio.sleep(3600))

        async def pong():
            while data := await pong_r.read(4):
                pong_w.write(data)

        ponging = asyncio.ensure_future(pong())
        for _ in range(200):
            ping_w.write(b"ping")
            assert await ping_r.readexactly(4) == b"ping"
        exchanged = loop.time() - start
        await timer
        slept = loop.time() - start
        ping_w.close()  # the pong loop ends at EOF
        await ponging
        await teardown(server, ping_w, pong_w)
        return exchanged, slept

    exchanged, slept = run(main())
    assert exchanged < 1.0
    assert slept >= 3600
