"""Property suite for admission control.

Hypothesis drives random interleavings of submissions, grants and releases
against the quota counters and the round-robin dispatcher, pinning the
invariants the serving layer leans on:

- queued/running counters never go negative and always reconcile with
  the number of outstanding grants (grant/release sequences commute);
- round-robin dispatch never starves: any tenant with ready work is
  served within one full rotation, whatever the backlog of the others.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.admission import (
    AdmissionController,
    QuotaExceeded,
    TenantQuota,
)

TENANTS = ("alpha", "bravo", "charlie", "delta")


# -- quota counters -------------------------------------------------------------


@st.composite
def _admission_ops(draw):
    """A random, *validity-respecting* op sequence over several tenants."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["admit", "start", "finish"]),
                st.sampled_from(TENANTS),
            ),
            max_size=80,
        )
    )
    return ops


@given(ops=_admission_ops())
@settings(max_examples=120, deadline=None)
def test_counters_never_negative(ops):
    controller = AdmissionController(
        default_quota=TenantQuota(max_queued=4, max_running=2),
    )
    queued = {tenant: 0 for tenant in TENANTS}
    running = {tenant: 0 for tenant in TENANTS}
    for action, tenant in ops:
        if action == "admit":
            try:
                controller.admit(tenant)
                queued[tenant] += 1
            except QuotaExceeded:
                assert queued[tenant] >= 4  # refused exactly at the quota
        elif action == "start":
            if controller.start(tenant):
                queued[tenant] -= 1
                running[tenant] += 1
            else:
                assert queued[tenant] == 0 or running[tenant] >= 2
        elif running[tenant] > 0:
            controller.finish(tenant)
            running[tenant] -= 1
        else:
            with pytest.raises(ValueError):
                controller.finish(tenant)
        counts = controller.counts()
        for name in TENANTS:
            expected = {"queued": queued[name], "running": running[name]}
            assert counts.get(name, {"queued": 0, "running": 0}) == expected
            assert min(expected.values()) >= 0


@given(
    grants=st.lists(st.sampled_from(TENANTS), min_size=1, max_size=12),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_grant_release_commutes(grants, order):
    """Releasing outstanding grants in any order reconciles to zero."""
    controller = AdmissionController(
        default_quota=TenantQuota(max_queued=32, max_running=32),
    )
    started = []
    for tenant in grants:
        controller.admit(tenant)
        assert controller.start(tenant)
        started.append(tenant)
    order.shuffle(started)
    for tenant in started:
        controller.finish(tenant)
    for counts in controller.counts().values():
        assert counts == {"queued": 0, "running": 0}


# -- round-robin fairness -------------------------------------------------------


@given(
    backlog=st.dictionaries(
        st.sampled_from(TENANTS),
        st.integers(min_value=1, max_value=20),
        min_size=2,
    )
)
@settings(max_examples=80, deadline=None)
def test_round_robin_never_starves(backlog):
    """Every backlogged tenant is served within one full rotation."""
    controller = AdmissionController(
        default_quota=TenantQuota(max_queued=32, max_running=32),
    )
    remaining = dict(backlog)
    for tenant, count in backlog.items():
        for _ in range(count):
            controller.admit(tenant)
    first_service_round: dict[str, int] = {}
    rounds = 0
    while remaining:
        rounds += 1
        tenant = controller.next_tenant()
        assert tenant is not None, "work remains but dispatcher found none"
        assert controller.start(tenant)
        controller.finish(tenant)
        first_service_round.setdefault(tenant, rounds)
        remaining[tenant] -= 1
        if remaining[tenant] == 0:
            del remaining[tenant]
    # each tenant's first grant happens within the first |tenants| picks
    for tenant in backlog:
        assert first_service_round[tenant] <= len(backlog)
