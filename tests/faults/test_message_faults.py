"""Message drops and delays: retries heal transient loss; exhaustion
fences the unreachable peer."""

import pytest

from repro.faults import FaultPlan, MessageDelayFault, MessageDropFault
from repro.faults.controller import FaultController
from repro.runtime.executor import _simulated_run, run_loop, run_loop_stage

from .conftest import DLB_SCHEMES, assert_exact_coverage

pytestmark = pytest.mark.faults


@pytest.mark.parametrize("scheme", DLB_SCHEMES)
def test_work_drop_recovered_by_retry(scheme, ft_loop, cluster4,
                                      ft_options):
    """Two lost WORK messages are re-requested and resent; nobody is
    declared dead and coverage is exact."""
    plan = FaultPlan(
        drops=(MessageDropFault(probability=1.0, max_drops=2, tag="work"),),
        seed=7)
    stats = run_loop(ft_loop, cluster4, scheme, options=ft_options,
                     fault_plan=plan)
    assert_exact_coverage(stats, ft_loop)
    assert stats.dropped_messages == 2
    assert stats.declared_dead == ()
    assert stats.fault_retries > 0


@pytest.mark.parametrize("scheme", DLB_SCHEMES)
def test_profile_drop_recovered(scheme, ft_loop, cluster4, ft_options):
    """A lost PROFILE stalls the sync until a resend-profile probe or
    the waiter's re-request heals it."""
    plan = FaultPlan(
        drops=(MessageDropFault(probability=1.0, max_drops=1,
                                tag="profile"),),
        seed=11)
    stats = run_loop(ft_loop, cluster4, scheme, options=ft_options,
                     fault_plan=plan)
    assert_exact_coverage(stats, ft_loop)
    assert stats.declared_dead == ()


@pytest.mark.parametrize("scheme", DLB_SCHEMES)
def test_retry_exhaustion_fences_silent_peer(scheme, ft_loop, cluster4,
                                             ft_options):
    """Node 3's outbound link dies entirely: peers exhaust their retry
    budget, declare it dead, and the declaration fences it — the loop
    still completes exactly once on the survivors."""
    plan = FaultPlan(
        drops=(MessageDropFault(probability=1.0, max_drops=10_000, src=3),),
        seed=13)
    stats = run_loop(ft_loop, cluster4, scheme, options=ft_options,
                     fault_plan=plan)
    assert_exact_coverage(stats, ft_loop)
    assert 3 in stats.declared_dead
    assert 3 in stats.fenced_nodes
    assert stats.fault_retries >= ft_options.fault_tolerance.max_retries


@pytest.mark.parametrize("scheme", DLB_SCHEMES)
def test_delays_reorder_but_lose_nothing(scheme, ft_loop, cluster4,
                                         ft_options):
    plan = FaultPlan(
        delays=(MessageDelayFault(extra_seconds=0.05, probability=0.5,
                                  max_delays=20),),
        seed=17)
    stats = run_loop(ft_loop, cluster4, scheme, options=ft_options,
                     fault_plan=plan)
    assert_exact_coverage(stats, ft_loop)
    assert stats.delayed_messages > 0
    assert stats.declared_dead == ()


def test_drop_budget_respected(ft_loop, cluster4, ft_options):
    plan = FaultPlan(
        drops=(MessageDropFault(probability=1.0, max_drops=3),), seed=23)
    stats = run_loop(ft_loop, cluster4, "GDDLB", options=ft_options,
                     fault_plan=plan)
    assert_exact_coverage(stats, ft_loop)
    assert stats.dropped_messages == 3


def test_drop_and_delay_tallies_are_the_networks_per_stage(
        ft_loop, cluster4, ft_options, monkeypatch):
    """A dropped or delayed message is counted once, by the network, in
    the stage whose fault plan injected it: each loop stage on one
    environment reports what its own controller's budgets spent, and
    that is the network's count for the stage."""
    controllers = []
    install = FaultController.install

    def spy(self):
        controllers.append(self)
        install(self)

    monkeypatch.setattr(FaultController, "install", spy)
    plan = FaultPlan(
        drops=(MessageDropFault(probability=0.5, max_drops=3),),
        delays=(MessageDelayFault(extra_seconds=0.02, probability=0.5,
                                  max_delays=5),),
        seed=29)
    with _simulated_run(cluster4, ft_options) as (env, stations, vm):
        net = vm.network.stats
        for _stage in range(2):
            before = (net.dropped_messages, net.delayed_messages)
            stats = run_loop_stage(env, vm, stations, ft_loop, "GDDLB",
                                   ft_options, fault_plan=plan)
            assert_exact_coverage(stats, ft_loop)
            (drops,), (delays,) = (controllers[-1]._drop_budgets,
                                   controllers[-1]._delay_budgets)
            assert stats.dropped_messages == \
                drops.spec.max_drops - drops.remaining == \
                net.dropped_messages - before[0] > 0
            assert stats.delayed_messages == \
                delays.spec.max_delays - delays.remaining == \
                net.delayed_messages - before[1] > 0
