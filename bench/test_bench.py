"""Tests of the benchmark itself: every correctness check rejects a
corrupted output, and the trace arithmetic is right on hand-made spans.

    python3 -m pytest bench
"""

import os
import sys
from dataclasses import replace
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"),
                os.path.join(os.path.dirname(HERE), "tests"), HERE]

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pfim.diffusion import SeedSchedule, sample_full_realization  # noqa: E402
from pfim.estimation import ExactEstimator  # noqa: E402
from pfim.policies import PolicyConfig, run_policy  # noqa: E402

INSTANCES = workloads.tiny_instances()


@pytest.fixture(scope="module")
def world():
    g, b = INSTANCES[0]
    realization = sample_full_realization(g, 5)
    run = run_policy(g, PolicyConfig("uniform", 1.0, Fraction(b)), realization,
                     ExactEstimator(), 0)
    return g, Fraction(b), realization.live, run


def test_world_check_rejects_corrupted_runs(world):
    g, budget, live, run = world
    assert checks.world_problems(g, budget, live, run) == []
    assert checks.world_problems(g, budget, live,
                                 replace(run, realized_cascade=run.realized_cascade + 1))
    assert checks.world_problems(g, budget, live, replace(run, total_cost=run.total_cost - 1))
    assert checks.world_problems(g, Fraction(1), live, run)


def test_blind_check_rejects_a_late_seed(world):
    run = world[3]
    assert checks.blind_problems(replace(run, schedule=SeedSchedule(((0, 0), (1, 0))))) == []
    assert checks.blind_problems(replace(run, schedule=SeedSchedule(((0, 0), (1, 1)))))


HEADER = ("alpha,budget,i,policy,estimator,realizations,"
          "mean_spread,stderr,mean_slots,mean_seeds,rng_seed")
GOOD_CSV = (HEADER + "\n"
            "0,3,na,uniform,eps(0.2,random)+mc(10),20,19.35,1.19928707,0,3,5\n"
            "1,3,na,uniform,eps(0.2,random)+mc(10),20,20.15,1.16138529,10.35,3,5\n")


@pytest.mark.parametrize("old,new", [
    (",0,3,5\n", ",0,2.95,5\n"),       # a world seeded below the budget
    (",0,3,5\n", ",0.5,3,5\n"),        # alpha 0 waited
    (",20,19.35,", ",20,2.5,"),        # spread below the seed count
    (",20,19.35,", ",19,19.35,"),      # wrong world count
    (",10.35,3,5\n", ",10.35,3,6\n"),  # wrong seed
    ("\n1,3,", "\n0.5,3,"),            # wrong alpha column
])
def test_sweep_check_rejects_corrupted_csv(old, new):
    args = (["0", "1"], 3, 20, 5, 60)
    assert checks.sweep_problems(GOOD_CSV, *args) == []
    assert old in GOOD_CSV
    assert checks.sweep_problems(GOOD_CSV.replace(old, new, 1), *args)


def test_csv_format_check_wants_the_header_width():
    assert checks.csv_format_problems(GOOD_CSV)
    quoted = GOOD_CSV.replace("eps(0.2,random)+mc(10)", '"eps(0.2,random)+mc(10)"')
    assert checks.csv_format_problems(quoted) == []


class _FakeSweep(workloads.Workload):
    """Round outputs are problem lists for three operations; the last one
    is the known fault's operation."""
    round_size = 3

    def problems(self, r, outputs):
        return [out[0] for out in outputs]

    def known_faults(self, r, outputs):
        return [[]] * (len(outputs) - 1) + [outputs[-1][1]]


def test_only_the_known_fault_leaves_correct_true():
    fault = ["3 of 3 rows do not have the header's 11 fields"]
    ok = [([], []), ([], []), ([], fault)]
    assert run.check_round(_FakeSweep(), 0, ok, None) == (3, 1, 0)
    other = [([], []), ([], []), (["CSV does not end with a newline"], fault)]
    assert run.check_round(_FakeSweep(), 1, other, None) == (3, 1, 1)
    world = [(["seeds cost 4 over budget 3"], []), ([], []), ([], [])]
    assert run.check_round(_FakeSweep(), 2, world, None) == (3, 1, 1)
    assert run.check_round(_FakeSweep(), 3, None, "ValueError: x") == (3, 3, 0)


def test_identity_check_rejects_one_changed_byte():
    data = GOOD_CSV.encode()
    assert checks.identical_problems("x", data, data) == []
    changed = bytearray(data)
    changed[len(HEADER) + 7] ^= 1
    assert checks.identical_problems("x", data, bytes(changed))
    assert checks.identical_problems("x", data, data[:-1])


def test_referee_check_rejects_a_value_off_by_a_millionth():
    referee = workloads.Referee(1, "")
    i = 2
    g, b = INSTANCES[i]
    budget = Fraction(b)
    values = tuple(workloads.oracles.evaluate_policy_exact(g, c).value
                   for c in referee.configs(budget))
    optimum = workloads.oracles.optimal_full_feedback_adaptive(g, budget)
    enumerated = referee.enumerated(i)
    assert checks.referee_problems(values, optimum, enumerated) == []
    for k in range(3):
        off = tuple(v + 1e-6 * (j == k) for j, v in enumerate(values))
        assert checks.referee_problems(off, optimum, enumerated)
    assert checks.referee_problems(values, values[1] - 1e-6)      # optimum below a policy
    assert checks.referee_problems((0.5 * optimum,) + values[1:], optimum)  # under 1-1/e


def _span(name, start, end, parent=-1, attrs=None, pid=1):
    return [name, start, end, parent, attrs, pid]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span("root", 0, 100),
        _span("a", 10, 40, 0),
        _span("b", 30, 60, 0),       # overlaps a: 10..60 is covered once
        _span("a.child", 15, 20, 1),
        _span("c", 90, 120, 0),      # runs past its parent: 90..100 counts
        _span("d", 200, 300, attrs={"reach.bfs#ns": 30, "reach.bfs#calls": 2}),
    ]
    assert tracing.self_times(spans) == [40, 25, 30, 5, 30, 70]


def test_layer_metrics_on_hand_made_spans():
    ms = 1_000_000
    spans = [
        _span("policies.run", 0, 10 * ms, attrs={"rounds": 3, "waits": 1, "selections": 2,
                                                 "forced": 1}),
        _span("estimation.activation", 1 * ms, 5 * ms, 0,
              {"states": 1, "completions": 30, "reach.bfs#calls": 1, "reach.bfs#ns": ms}),
        _span("estimation.zero_set", 1 * ms, 2 * ms, 1),
        _span("reach.bfs", 1 * ms, 2 * ms, 2),     # a leaf called with no span open
        _span("reach.closure", 6 * ms, 7 * ms, 0),
        # a sampled evaluation with two workers; worker 7 runs two worlds
        _span("cli.main", 20 * ms, 60 * ms),
        _span("oracles.sampled", 25 * ms, 55 * ms, 5, {"threads": 2}),
        _span("policies.run", 26 * ms, 36 * ms, pid=7),
        _span("policies.run", 36 * ms, 46 * ms, pid=7),
        _span("policies.run", 26 * ms, 31 * ms, pid=8),
    ]
    m = {k: v["value"] for k, v in tracing.layer_metrics(spans, 2, [], 1.0, 1.25).items()}
    assert m["estimation.activation_calls"] == 0.5
    assert m["estimation.activation_self_s"] == pytest.approx(2 * ms * 1e-9 / 2)
    assert m["estimation.zero_set_s"] == pytest.approx(1e-3 / 2)
    assert m["estimation.completions_sampled"] == 15
    assert m["reach.bfs_calls"] == 1
    assert m["reach.bfs_s"] == pytest.approx(1e-3)
    assert m["reach.self_s"] == pytest.approx(1.5e-3)      # both bfs calls and the closure
    assert m["policies.rounds"] == 1.5
    assert m["policies.forced_selections"] == 0.5
    assert m["reach.closures_per_selection"] == 0.5
    assert m["oracles.pool_efficiency"] == pytest.approx(25 / 60)
    assert m["oracles.max_worlds_per_worker"] == 2
    assert m["cli.overhead_s"] == pytest.approx(10e-3 / 2)
    assert m["policies.world_p50_ms"] == 10
    assert m["trace.overhead_pct"] == pytest.approx(25.0)


def _hook_targets() -> list:
    targets = []
    for module_name, path, _, _ in tracing.HOOKS:
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        targets.append(vars(owner)[attr])
    return targets + [vars(workloads.MonteCarloEstimator)["_batch"]]


def test_install_records_spans_and_uninstall_restores(tmp_path):
    import pfim.estimation
    import pfim.reach
    originals = (pfim.reach.reachable_mask, pfim.estimation.reachable_mask,
                 pfim.estimation.MonteCarloEstimator.activation)
    targets = _hook_targets()
    g, b = INSTANCES[0]
    tracer = tracing.Tracer(str(tmp_path))
    uninstall = tracing.install(tracer)
    try:
        patched = _hook_targets()
        assert [t for t, p in zip(targets, patched) if t is p] == []   # every hook patched
        run = workloads.policies.run_policy(
            g, PolicyConfig("uniform", 0.5, Fraction(b)), sample_full_realization(g, 1),
            pfim.estimation.MonteCarloEstimator(10, 0), 0)
    finally:
        uninstall()
    assert originals == (pfim.reach.reachable_mask, pfim.estimation.reachable_mask,
                         pfim.estimation.MonteCarloEstimator.activation)
    assert all(t is u for t, u in zip(targets, _hook_targets()))
    spans = tracer.collect()
    names = {s[0] for s in spans}
    assert {"policies.run", "policies.decide", "estimation.activation",
            "estimation.zero_set", "diffusion.cascade"} <= names
    assert spans[0][0] == "policies.run"
    assert spans[0][4]["selections"] == len(run.schedule)
    attrs = [s[4] or {} for s in spans]
    assert sum(a.get("states", 0) for a in attrs) >= 1
    assert sum(a.get("reach.bfs#calls", 0) for a in attrs) >= 1   # leaf calls summed


def test_install_raises_on_a_missing_target(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        ("pfim.estimation", "MonteCarloEstimator.renamed", "estimation.renamed", None),))
    before = vars(workloads.MonteCarloEstimator)["activation"]
    with pytest.raises(LookupError, match="MonteCarloEstimator.renamed"):
        tracing.install(tracing.Tracer(str(tmp_path)))
    assert vars(workloads.MonteCarloEstimator)["activation"] is before   # nothing patched
