"""FIG6 — the policy matrix (Figure 6) plus a single-θ policy snapshot.

Figure 6 itself is definitional; to make the bench informative we also
measure all eight policies at one operating point (θ = 0.27, the
literature's canonical skew) on the small system.
"""

from repro.analysis.report import render_table
from repro.cluster.system import SMALL_SYSTEM
from repro.core.policies import PAPER_POLICIES
from repro.experiments.fig7_policies import policy_matrix_table, run_fig7

from conftest import BENCH_SCALE, emit


def test_fig6_policy_matrix_snapshot():
    result = run_fig7(
        system=SMALL_SYSTEM, theta_values=[0.27], scale=BENCH_SCALE,
    )
    emit("")
    emit(policy_matrix_table())
    rows = [
        [name, PAPER_POLICIES[name].describe().split(": ", 1)[1],
         result.means(name)[0]]
        for name in PAPER_POLICIES
    ]
    emit("")
    emit(render_table(
        ["Policy", "Configuration", "Utilization @ theta=0.27"],
        rows,
        title="Figure 6 policies measured at theta=0.27 (small system)",
    ))
    # Mechanisms never hurt: P4 (both) beats P1 (neither).
    assert result.means("P4")[0] > result.means("P1")[0]
    # Staging alone (P2) also beats the bare baseline.
    assert result.means("P2")[0] > result.means("P1")[0]
