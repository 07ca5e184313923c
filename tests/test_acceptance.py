"""End-to-end acceptance checks.

Each test covers one headline property of the system, prints a single
PASS/FAIL line with its measured detail, and enforces the runtime budget
it was designed to fit. Instances are generated deterministically, so
every run exercises identical inputs.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from pfim._util import derive_seed
from pfim.bounds import (bound_enhanced, bound_enhanced_eps, bound_nonuniform,
                         bound_nonuniform_eps, bound_uniform, bound_uniform_eps)
from pfim.checks import (alpha_zero_seeds, estimator_agreement, guarantee_ratio,
                         observation_violations)
from pfim.cli import main as cli_main
from pfim.diffusion import SeedSchedule, empty_partial, observe, sample_full_realization
from pfim.estimation import MonteCarloEstimator, exact_conditional_activation
from pfim.graph import generate_graph
from pfim.oracles import evaluate_policy_exact, evaluate_policy_sampled
from pfim.policies import PolicyConfig, run_policy

from bruteforce import greedy_nonadaptive_uniform


@pytest.fixture
def report(capsys):
    """Print a criterion verdict on the real terminal, then enforce it."""
    def _report(name: str, ok: bool, detail: str):
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        with capsys.disabled():
            print(line)
        assert ok, f"{name}: {detail}"
    return _report


def small_instances():
    """Twenty fixed tiny graphs with varied edge probabilities."""
    out = []
    for attempt in range(1, 21):
        n = 4 + attempt % 3            # 4..6
        m = min(2 * n - 2, 10)
        g = generate_graph(n, m, "erdos-renyi", 45, derive_seed(101, attempt))
        rng = random.Random(derive_seed(102, attempt))
        probs = [round(rng.uniform(0.15, 0.9), 3) for _ in range(g.edge_count)]
        budget = 2 + attempt % 2       # 2..3
        out.append((g.with_probabilities(probs), budget))
    return out


INSTANCES = small_instances()


def test_guarantee_at_full_threshold(report):
    t0 = time.monotonic()
    worst = min(guarantee_ratio(g, budget) for g, budget in INSTANCES)
    elapsed = time.monotonic() - t0
    ok = worst >= 0.6321206 - 1e-9 and elapsed < 60
    report("guarantee-at-alpha-1", ok,
           f"worst ratio {worst:.9f} over {len(INSTANCES)} instances "
           f"(floor 0.6321206) in {elapsed:.1f}s")


def test_zero_threshold_matches_nonadaptive_greedy(report):
    t0 = time.monotonic()
    mismatches = 0
    for g, budget in INSTANCES:
        want = greedy_nonadaptive_uniform(g, budget)
        _, ok = alpha_zero_seeds(g, budget, sample_full_realization(g, 7), want)
        mismatches += not ok
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10
    report("alpha-0-nonadaptive-equivalence", ok,
           f"{mismatches} mismatches across {len(INSTANCES)} instances "
           f"in {elapsed:.1f}s")


def test_full_threshold_has_full_information(report):
    violations = 0
    checks = 0

    for g, budget in INSTANCES:
        def hook(seeds, partial, graph=g):
            nonlocal violations, checks
            if not seeds:
                return
            checks += 1
            for p in exact_conditional_activation(graph, seeds, partial):
                if min(p, abs(1.0 - p)) > 1e-12:
                    violations += 1
        evaluate_policy_exact(g, PolicyConfig("uniform", 1.0, Fraction(budget)),
                              selection_hook=hook)
    ok = violations == 0 and checks > 0
    report("alpha-1-full-feedback-equivalence", ok,
           f"{violations} uncertain nodes at {checks} non-first selections")


def test_estimator_agreement(report):
    t0 = time.monotonic()
    k = 10_000
    pairs = 0
    off = 0
    zero_set_bad = 0
    for idx in range(50):
        rng = random.Random(derive_seed(400, idx))
        n = rng.randrange(5, 9)
        m = min(rng.randrange(4, 15), n * (n - 1))
        g = generate_graph(n, m, "erdos-renyi", 45, derive_seed(401, idx))
        probs = [round(rng.uniform(0.1, 0.95), 3) for _ in range(g.edge_count)]
        g = g.with_probabilities(probs)
        seeds = sorted(rng.sample(range(n), rng.randrange(1, 3)))
        if idx % 3 == 0:
            psi = empty_partial(g)
        else:
            realization = sample_full_realization(g, rng.randrange(1 << 30))
            schedule = SeedSchedule(tuple((v, 0) for v in seeds))
            psi = observe(g, realization, schedule, rng.randrange(0, n))
        nodes_off, zero_set_ok = estimator_agreement(g, seeds, psi, k,
                                                     derive_seed(402, idx))
        pairs += n
        off += nodes_off
        zero_set_bad += not zero_set_ok
    elapsed = time.monotonic() - t0
    share = 1.0 - off / pairs
    ok = share >= 0.99 and zero_set_bad == 0 and elapsed < 120
    report("estimator-agreement", ok,
           f"{share:.2%} of {pairs} node estimates within 3 sigma, "
           f"{zero_set_bad} zero-set mismatches, {elapsed:.1f}s")


def test_observation_invariants(report):
    t0 = time.monotonic()
    violations = 0
    triples = 0
    rng = random.Random(derive_seed(500, 0))
    while triples < 1000:
        n = rng.randrange(3, 8)
        m = min(rng.randrange(1, 2 * n + 1), n * (n - 1))
        g = generate_graph(n, m, "erdos-renyi", 50, rng.randrange(1 << 30))
        realization = sample_full_realization(g, rng.randrange(1 << 30))
        k = rng.randrange(1, min(3, n) + 1)
        schedule = SeedSchedule(tuple(
            (v, i) for i, v in enumerate(rng.sample(range(n), k))))
        start = k - 1
        t = start + rng.randrange(0, n + 2)
        triples += 1
        violations += observation_violations(g, realization, schedule, (t, t + 1), 5)
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 10
    report("observation-invariants", ok,
           f"{violations} violations across {triples} triples in {elapsed:.1f}s")


def test_bound_calculators(report):
    worst = 0.0

    def check(actual, expected):
        nonlocal worst
        worst = max(worst, abs(actual - expected))

    check(bound_uniform(1.0), 1.0 - math.exp(-1.0))
    check(bound_enhanced(1.0), (1.0 - math.exp(-1.0)) / 2.0)
    check(bound_uniform_eps(1.0, 0.1, 100, 50.0), 8.792288193609131)
    for a in (0.0, 0.3, 0.7, 1.0):
        check(bound_uniform_eps(a, 0.0, 100, 50.0), bound_uniform(a) * 50.0)
        check(bound_nonuniform_eps(a, 0.0, 100, 50.0, 10, 2, 1),
              bound_nonuniform(a, 10, 2) * 50.0)
        check(bound_enhanced_eps(a, 0.0, 100, 50.0, 10, 1),
              bound_enhanced(a) * 50.0)
    ok = worst <= 1e-12
    report("bound-calculators", ok, f"max deviation {worst:.2e} (limit 1e-12)")


def test_feedback_raises_spread_on_synthetic_graph(report):
    t0 = time.monotonic()
    g = generate_graph(200, 800, "erdos-renyi", 40, 2024)
    estimator = MonteCarloEstimator(30, 0)
    worlds = 500
    budget = Fraction(16)

    blind = evaluate_policy_sampled(
        g, PolicyConfig("enhanced", 0.0, budget), worlds, 11, estimator)
    informed = evaluate_policy_sampled(
        g, PolicyConfig("enhanced", 0.8, budget), worlds, 11, estimator)
    elapsed = time.monotonic() - t0
    lift = informed.mean_spread / blind.mean_spread
    ok = lift >= 1.05 and elapsed < 300
    report("feedback-trend", ok,
           f"alpha=0.8 spread {informed.mean_spread:.2f} vs alpha=0 "
           f"{blind.mean_spread:.2f} (lift {lift:.3f}, floor 1.05) "
           f"over {worlds} worlds in {elapsed:.0f}s")


def test_budget_safety_and_determinism(tmp_path, capsys, report):
    t0 = time.monotonic()
    over_budget = 0
    rng = random.Random(derive_seed(800, 0))
    estimator = MonteCarloEstimator(20, 0)
    runs = 0
    while runs < 10_000:
        n = rng.randrange(4, 8)
        m = min(rng.randrange(2, 2 * n), n * (n - 1))
        g = generate_graph(n, m, "erdos-renyi", 50, rng.randrange(1 << 30))
        costs = tuple(Fraction(rng.randrange(1, 5)) for _ in range(n))
        budget = Fraction(rng.randrange(1, 10))
        if min(costs) > budget:
            continue
        g = g.with_costs(costs)
        realization = sample_full_realization(g, rng.randrange(1 << 30))
        alpha = rng.choice([0.0, 0.4, 0.8, 1.0])
        run = run_policy(g, PolicyConfig("nonuniform", alpha, budget),
                         realization, estimator, rng.randrange(1 << 30))
        runs += 1
        if run.total_cost > budget:
            over_budget += 1

    edge_file = tmp_path / "det.edges"
    cli_main(["gen-graph", "--nodes", "30", "--edges", "70", "--i", "35",
              "--seed", "6", "--out", str(edge_file)])
    argv = ["sweep-alpha", "--graph", str(edge_file), "--alpha", "0,0.5,1",
            "--budget", "3", "--policy", "nonuniform", "--estimator", "mc",
            "--samples", "60", "--realizations", "40", "--seed", "12"]
    outputs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        assert cli_main(argv + ["--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    capsys.readouterr()
    identical = outputs[0] == outputs[1]
    elapsed = time.monotonic() - t0
    ok = over_budget == 0 and identical
    report("budget-safety-and-determinism", ok,
           f"{over_budget} of {runs} runs exceeded budget, "
           f"CSV byte-identical={identical}, {elapsed:.0f}s")
