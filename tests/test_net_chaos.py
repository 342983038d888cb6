"""Net chaos: transport faults must end in recovery or a clean trap."""

import json

import pytest

from repro.errors import NetError
from repro.faults.chaos import ChaosReport, Outcome, OutcomeClass, sweep
from repro.faults.inject import firing_schedule
from repro.faults.plan import FaultPlan, Injection, at_step, on_event
from repro.net.chaos import (
    CASE_PROGRAM,
    NET_PLANS,
    make_net_plan,
    run_net_case,
    run_net_chaos,
)
from repro.workloads.programs import program


def test_net_actions_validate_their_triggers():
    Injection(on_event("net.send", 3), "net_drop")  # fine
    with pytest.raises(ValueError, match="on_event trigger"):
        Injection(at_step(100), "net_drop")
    with pytest.raises(ValueError, match="unknown action"):
        Injection(on_event("net.send", 1), "net_teleport")


def test_machine_injector_never_arms_net_actions():
    """net_* faults belong to the transport; the machine's firing
    schedule leaves them out even when the plan mixes both kinds."""
    plan = FaultPlan(
        name="mixed",
        seed=0,
        injections=(
            Injection(on_event("net.send", 1), "net_drop"),
            Injection(at_step(10), "trap", detail="frame_fault"),
        ),
    )
    stamps = [("machine.begin", 0), ("net.send", 4)]
    assert [entry[:2] for entry in firing_schedule(plan, stamps)] == [(10, 1)]


def test_plans_are_seeded_and_reproducible():
    for name in NET_PLANS:
        assert make_net_plan(name, 3) == make_net_plan(name, 3)
        assert make_net_plan(name, 3) != make_net_plan(name, 4)
    with pytest.raises(NetError, match="unknown net chaos plan"):
        make_net_plan("net_gremlins", 0)


def test_partition_case_recovers_with_reference_results():
    outcome = run_net_case("i2", make_net_plan("net_partition", 0))
    assert outcome.klass is OutcomeClass.RECOVERED
    assert outcome.results == [119]
    assert outcome.injections_fired > 0


def test_blackhole_case_traps_cleanly_with_diagnostics():
    outcome = run_net_case("i2", make_net_plan("net_blackhole", 0))
    assert outcome.klass is OutcomeClass.TRAPPED
    assert outcome.trap == "lost_request"
    assert "unanswered" in outcome.detail


def test_sweep_is_conformant_on_all_presets():
    report = run_net_chaos(seeds=1)
    assert report.ok, report.summary()
    classes = {
        outcome.klass
        for case in report.cases
        for outcome in case.outcomes.values()
    }
    assert classes == {OutcomeClass.RECOVERED, OutcomeClass.TRAPPED}  # both endings exercised
    # The report serializes for the CI artifact.
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["schema"] == "repro-net-chaos/1"
    assert doc["ok"] is True


def test_cli_chaos_net(tmp_path, capsys):
    from repro.cli import main

    report_file = tmp_path / "net.json"
    assert main(
        ["chaos", "--net", "--seeds", "1", "--plans", "net_partition",
         "--report", str(report_file)]
    ) == 0
    out = capsys.readouterr().out
    assert "net chaos" in out
    assert "all implementations conformant" in out
    assert json.loads(report_file.read_text())["ok"] is True


def test_cli_chaos_net_rejects_unknown_plan(capsys):
    from repro.cli import main

    assert main(["chaos", "--net", "--plans", "net_gremlins"]) == 2


def test_cli_chaos_net_rejects_seeds_below_one(capsys):
    from repro.cli import main

    assert main(["chaos", "--net", "--seeds", "-3"]) == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err


REFERENCE = Outcome(OutcomeClass.RECOVERED, results=[119])
LOST = Outcome(OutcomeClass.TRAPPED, trap="lost_request", detail="unanswered")


@pytest.mark.parametrize(
    "i2, i4, failures",
    [
        # Each outcome alone is valid, but the implementations disagree.
        (REFERENCE, LOST, ["outcome classes diverge: i2=recovered, i4=trapped"]),
        (REFERENCE, Outcome(OutcomeClass.RECOVERED, results=[0]),
         ["i4: recovered with results [0] != reference [119]"]),
        # A wire trap needs a detail, not a pc: a lost request has none.
        (LOST, Outcome(OutcomeClass.TRAPPED, trap="lost_request"),
         ["i4: trapped without diagnostics"]),
    ],
)
def test_net_cases_get_the_shared_check(i2, i4, failures):
    outcomes = {"i2": i2, "i4": i4}
    case = (program(CASE_PROGRAM), 0, make_net_plan("net_blackhole", 0), {})
    report = sweep(
        ChaosReport(net=True), [case], ("i2", "i4"),
        lambda prog, preset, plan: outcomes[preset],
    )
    assert not report.ok
    assert report.cases[0].failures == failures


def test_migration_cases_must_meter_identically_twice_and_recover():
    runs = iter(range(10))

    def run(prog, preset, plan):
        return Outcome(
            OutcomeClass.TRAPPED, trap="lost_request", detail="unanswered",
            meters={0: {"run": next(runs)}},
        )

    case = (program(CASE_PROGRAM), 0, make_net_plan("net_partition", 0), {})
    report = sweep(
        ChaosReport(net=True), [case], ("i2",), run, rerun=True, migrating=True
    )
    assert report.cases[0].failures == [
        "i2: per-shard meters differ between two seeded runs of the same "
        "migrated plan",
        "i2: migration case must recover, got trapped (lost_request: unanswered)",
    ]
