"""Referee check bodies shared by ``pfim oracle-check`` and the acceptance
tests. Each function measures one property on one instance and returns the
measurement; the caller owns its instances, its floor and its report."""

import math
from fractions import Fraction

from .diffusion import empty_partial, live_adjacency, observe
from .estimation import (EpsilonEstimator, ExactEstimator, MonteCarloEstimator,
                         exact_conditional_activation)
from .oracles import evaluate_policy_exact, optimal_full_feedback_adaptive
from .policies import PolicyConfig, run_policy


def guarantee_ratio(graph, budget) -> float:
    """Exact value of the uniform policy at alpha = 1 over the full-feedback
    adaptive optimum; at least 1 - 1/e by adaptive submodularity (Golovin
    and Krause, JAIR 2011)."""
    budget = Fraction(budget)
    value = evaluate_policy_exact(graph, PolicyConfig("uniform", 1.0, budget)).value
    return value / optimal_full_feedback_adaptive(graph, budget)


def greedy_nonadaptive(graph, budget: int) -> list[int]:
    """Greedy on exact unconditional cascade values, smallest id on ties:
    the CLI's referee for the alpha = 0 check. The values are the exact
    backend's correctly rounded totals, as the policy reads them."""
    estimator, empty = ExactEstimator(), empty_partial(graph)

    def value(seeds):
        return estimator.activation(graph, seeds, empty).expected_cascade

    seeds: list[int] = []
    for _ in range(budget):
        base = value(seeds)
        seeds.append(max((v for v in range(graph.node_count) if v not in seeds),
                         key=lambda v: value(seeds + [v]) - base))
    return seeds


def alpha_zero_seeds(graph, budget: int, realization,
                     greedy: list[int]) -> tuple[list[int], bool]:
    """Seeds of the uniform policy at alpha = 0 with the exact backend, and
    whether they equal ``greedy`` with every seed placed at slot 0."""
    run = run_policy(graph, PolicyConfig("uniform", 0.0, budget), realization,
                     ExactEstimator(), 0)
    chosen = [v for v, _ in run.schedule.entries]
    return chosen, chosen == greedy and all(s == 0 for _, s in run.schedule.entries)


# two-sided false-alarm level of a 3 sigma normal band
_FALSE_ALARM = math.erfc(3.0 / math.sqrt(2.0))


def _upper_tail(n: int, p: float, c: int) -> float:
    """P(X >= c) for X ~ Binomial(n, p), 0 < p < 1 and c > n p, summed
    outward from c. Past the mean the terms only shrink, so the sum stops
    once they no longer change it."""
    term = math.exp(math.lgamma(n + 1) - math.lgamma(c + 1) - math.lgamma(n - c + 1)
                    + c * math.log(p) + (n - c) * math.log1p(-p))
    odds = p / (1.0 - p)
    total = 0.0
    while term > total * 1e-17:
        total += term
        if c == n:
            break
        term *= (n - c) / (c + 1) * odds
        c += 1
    return total


def _binomial_outlier(n: int, p: float, c: int) -> bool:
    """Whether count c of n trials falls in either tail of Binomial(n, p)
    holding less than half the 3 sigma band's false-alarm level. Exact for
    any n p, where the normal band misfires once n p is far below 1."""
    if p in (0.0, 1.0):
        return c != n * p
    if c > n * p:
        return _upper_tail(n, p, c) < _FALSE_ALARM / 2
    if c < n * p:
        return _upper_tail(n, 1.0 - p, n - c) < _FALSE_ALARM / 2
    return False


def estimator_agreement(graph, seeds, partial, samples: int,
                        rng_seed: int) -> tuple[int, bool]:
    """Monte Carlo against exact activation: the number of nodes whose
    hit count is a binomial outlier at the 3 sigma false-alarm level, and
    whether the Monte Carlo zero set holds exactly the nodes of exact
    probability 0."""
    exact = exact_conditional_activation(graph, seeds, partial)
    hits, zero = MonteCarloEstimator(samples, rng_seed)._propagate(
        graph, frozenset(seeds), partial)
    off = sum(_binomial_outlier(samples, p, c) for p, c in zip(exact, hits))
    return off, zero == frozenset(v for v, p in enumerate(exact) if p == 0.0)


def _deepest_live_layer(adjacency, seed: int) -> int:
    """Index of the last nonempty breadth-first layer from ``seed``."""
    seen, frontier, depth = {seed}, [seed], -1
    while frontier:
        depth += 1
        nxt = []
        for x in frontier:
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return depth


def observation_violations(graph, realization, schedule, slots, far: int) -> int:
    """Observation invariants broken in one world. Each state observed at
    ``slots`` (ascending) is consistent with the world and contained in the
    next. Hop h of a seed's walk reveals the edges leaving its live layer
    h - 1, so the revealed set is complete one slot after every seed's walk
    reaches its deepest live layer: the state there equals the state
    ``far`` slots later."""
    violations = 0
    previous = None
    for t in slots:
        psi = observe(graph, realization, schedule, t)
        violations += not psi.is_consistent_with(realization)
        violations += previous is not None and not previous.is_subset_of(psi)
        previous = psi
    live = live_adjacency(graph, realization)
    settle = max(slot + _deepest_live_layer(live, seed) + 1
                 for seed, slot in schedule.entries)
    settled = observe(graph, realization, schedule, settle)
    return violations + (settled.codes != observe(graph, realization, schedule,
                                                  settle + far).codes)


def corrupted_spreads(graph, budget: int, realization, rng_seed: int) -> tuple[int, int]:
    """Realized spread of the uniform alpha = 1 policy under an
    adversarial-low eps = 0.9 estimator, then under the exact backend.
    Reported only: the corrupted run has to finish, not to do well."""
    config = PolicyConfig("uniform", 1.0, budget)
    corrupted = EpsilonEstimator(ExactEstimator(), 0.9, "adversarial-low", 0)
    return tuple(run_policy(graph, config, realization, est, rng_seed).realized_cascade
                 for est in (corrupted, ExactEstimator()))
