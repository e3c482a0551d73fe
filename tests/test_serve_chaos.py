"""Acceptance test: the chaos harness's gates hold on a live server.

This is the PR's acceptance criterion, run end to end: mixed-priority
traffic at 2x measured capacity with 5% injected faults and one forced
worker crash must yield a valid (possibly degraded) response for every
admitted request, shed only low-priority traffic, keep gold p99 inside
its SLO deadline, and leave every shed/degrade/retry/crash/breaker
event visible in ``/statz``.
"""

import pytest

from repro.runtime.workers import fork_available
from repro.serve import ChaosConfig, ServeApp, ServerHandle, format_result
from repro.serve import run_chaos

QUERIES = [
    "(Brad:actor) -[acted_in]- (?:film)",
    "(?m:director) -[collaborated_with]- (Brad:actor);"
    "(?m) -[won]- (?:award)",
]


@pytest.mark.slow
def test_chaos_gates_hold(movie_graph):
    crash_ok = fork_available()
    app = ServeApp(movie_graph, workers=2, backend="auto",
                   breaker_cooldown_s=0.5)
    config = ChaosConfig(
        queries=QUERIES,
        n_requests=60,
        inject_crash=crash_ok,
        breaker_cooldown_s=0.5,
        seed=0,
    )
    with ServerHandle(app) as handle:
        result = run_chaos(*handle.address, config)

    assert result.passed, format_result(result)

    # Only low-priority classes were shed by overload; gold sheds (if
    # any) can only come from the hard-full path, which 2x load on a
    # 64-deep queue cannot reach.
    for outcome in result.outcomes:
        if outcome.response is not None and \
                outcome.response.status == "shed":
            assert outcome.request.priority != "gold", \
                f"gold request shed: {outcome.response.reason}"

    summary = result.summary()
    answered = summary["responses_by_status"].get("ok", 0) + \
        summary["responses_by_status"].get("degraded", 0)
    assert answered + summary["responses_by_status"].get("shed", 0) + \
        summary["responses_by_status"].get("error", 0) == config.n_requests
    # Overload at 2x must leave a visible degradation/shed trace.
    assert summary["responses_by_status"].get("degraded", 0) + \
        summary["responses_by_status"].get("shed", 0) > 0


def test_chaos_requires_queries():
    with pytest.raises(ValueError):
        run_chaos("127.0.0.1", 1, ChaosConfig(queries=[]))
