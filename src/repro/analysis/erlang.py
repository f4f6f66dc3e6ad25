"""Erlang-B loss model: the paper's analytic one-server expression.

Section 3.2: "We also show an analytical expression which gives the
expected utilization as a function of the SVBR for a one server system.
The fact that the analytical results are very close to the empirical
results … validates the accuracy of our experimental results."

A single server under **continuous** transmission (no staging, no
migration) with Poisson arrivals and a per-stream bandwidth reservation
is exactly an M/G/m/m loss system with ``m = SVBR`` circuits.  By the
Erlang insensitivity property the blocking probability depends on the
service-time distribution only through its mean, so Erlang B applies
despite the uniform (not exponential) video lengths::

    B(m, a) = (a^m / m!) / sum_{k=0}^{m} a^k / k!

With offered load ``a`` erlangs the carried load is ``a (1 - B)`` and
link utilization is ``a (1 - B) / m``.  At the paper's operating point
(offered load = capacity) ``a = m`` and utilization is ``1 - B(m, m)``.

The recursion ``B(0) = 1; B(k) = a B(k-1) / (k + a B(k-1))`` is used —
numerically stable for any m (factorials would overflow at SVBR 100).
"""

from __future__ import annotations


def erlang_b(servers: int, offered_load: float) -> float:
    """Blocking probability B(m, a) of an M/G/m/m loss system.

    Args:
        servers: m, number of circuits (here: SVBR stream slots).
        offered_load: a, offered traffic in erlangs (λ × mean holding
            time).

    Returns:
        Probability an arrival finds all m circuits busy.
    """
    if servers < 0:
        raise ValueError(f"servers must be >= 0, got {servers}")
    if offered_load < 0:
        raise ValueError(f"offered load must be >= 0, got {offered_load}")
    b = 1.0
    for k in range(1, servers + 1):
        b = offered_load * b / (k + offered_load * b)
    return b


def erlang_b_utilization(svbr: int, load: float = 1.0) -> float:
    """Expected link utilization of one server at the given offered load.

    Args:
        svbr: server-to-view bandwidth ratio (concurrent stream slots).
        load: offered load as a fraction of link capacity (paper: 1.0).

    Returns:
        Carried load over capacity: ``a (1 - B(m, a)) / m`` with
        ``a = load * m``.
    """
    if svbr < 1:
        raise ValueError(f"svbr must be >= 1, got {svbr}")
    a = load * svbr
    return a * (1.0 - erlang_b(svbr, a)) / svbr


def erlang_b_inverse(
    blocking_target: float, offered_load: float, max_servers: int = 100_000
) -> int:
    """Smallest m with B(m, a) <= target — the capacity-planning helper
    used by the ``capacity_planning`` example.

    Raises:
        ValueError: if the target cannot be met within *max_servers*.
    """
    if not 0 < blocking_target < 1:
        raise ValueError(
            f"blocking target must be in (0, 1), got {blocking_target}"
        )
    b = 1.0
    a = offered_load
    if a == 0.0:
        return 0
    for m in range(1, max_servers + 1):
        b = a * b / (m + a * b)
        if b <= blocking_target:
            return m
    raise ValueError(
        f"no m <= {max_servers} achieves B <= {blocking_target} at "
        f"a={offered_load}"
    )
