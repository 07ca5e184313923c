"""Command-line harness: experiment sweeps, single evaluations, oracle
self-checks, bound calculators, and synthetic graph generation.

Every command takes its settings from flags, optionally seeded by a flat
key-value config file (``key = value`` lines, ``#`` comments); a flag
given on the command line overrides the file. Errors come out on stderr
as a single machine-parseable line ``error: <code>: <message>`` with a
nonzero exit status. The PFIM_THREADS environment variable caps how many
worker processes the realization loops may use (default 1); results are
identical regardless because per-world streams are indexed, not shared.
"""

import argparse
import csv
import io
import os
import random
import sys
from fractions import Fraction

from ._util import derive_seed, fmt_g
from . import bounds as bounds_mod
from .diffusion import (SeedSchedule, empty_partial, live_subgraph, observe,
                        sample_full_realization)
from .estimation import (EpsilonEstimator, Estimator, ExactEstimator,
                         InstanceTooLarge, MonteCarloEstimator,
                         exact_conditional_activation)
from .graph import (DirectedGraph, GraphFormatError, assign_trivalency_probabilities,
                    diameter, edge_list_text, generate_graph, load_graph)
from .oracles import (ENUMERATION_EDGE_LIMIT, evaluate_policy_exact,
                      evaluate_policy_sampled, optimal_full_feedback_adaptive)
from .policies import PolicyConfig, run_policy, transcript_lines

CSV_HEADER = ("alpha,budget,i,policy,estimator,realizations,"
              "mean_spread,stderr,mean_slots,mean_seeds,rng_seed")


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"error: {code}: {message}")
        self.code = code
        self.detail = message


def _config_error(field: str, problem: str) -> CliError:
    return CliError("config", f"{field}: {problem}")


# ---------------------------------------------------------------------------
# config assembly


_CONFIG_KEYS = {"graph", "costs", "alpha", "budget", "i", "samples", "estimator",
                "epsilon", "eps_mode", "realizations", "seed", "out", "policy"}


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError("io", f"cannot read config file {path}: {exc.strerror}")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _config_error(path, f"line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise _config_error(path, f"unknown key {key!r} on line {lineno}")
        values[key] = value.strip()
    return values


def _merged(args: argparse.Namespace, key: str, fallback=None):
    explicit = getattr(args, key, None)
    if explicit is not None:
        return explicit
    file_values = getattr(args, "_file_values", {})
    if key in file_values:
        return file_values[key]
    return fallback


def _parse_alpha_list(text) -> list[float]:
    out = []
    for token in str(text).split(","):
        try:
            a = float(token)
        except ValueError:
            raise _config_error("alpha", f"{token!r} is not a number")
        if not (0.0 <= a <= 1.0):
            raise _config_error("alpha", f"{a:g} outside [0, 1]")
        out.append(a)
    if not out:
        raise _config_error("alpha", "empty list")
    return out


def _parse_budget_list(text) -> list[Fraction]:
    out = []
    for token in str(text).split(","):
        try:
            b = Fraction(token.strip())
        except (ValueError, ZeroDivisionError):
            raise _config_error("budget", f"{token!r} is not a number")
        if b <= 0:
            raise _config_error("budget", f"{b} must be positive")
        out.append(b)
    if not out:
        raise _config_error("budget", "empty list")
    return out


def _parse_int(field: str, text, minimum: int) -> int:
    try:
        value = int(str(text))
    except ValueError:
        raise _config_error(field, f"{text!r} is not an integer")
    if value < minimum:
        raise _config_error(field, f"{value} below minimum {minimum}")
    return value


def _build_estimator(args) -> tuple[Estimator, str]:
    spec = str(_merged(args, "estimator", "mc")).strip()
    samples = _parse_int("samples", _merged(args, "samples", 1000), 1)
    if spec == "exact":
        est: Estimator = ExactEstimator()
    elif spec == "mc":
        est = MonteCarloEstimator(samples, 0)
    elif spec.startswith("mc(") and spec.endswith(")"):
        est = MonteCarloEstimator(_parse_int("estimator", spec[3:-1], 1), 0)
    elif spec.startswith("mc:"):
        est = MonteCarloEstimator(_parse_int("estimator", spec[3:], 1), 0)
    else:
        raise _config_error("estimator", f"unknown spec {spec!r}")
    raw_eps = _merged(args, "epsilon", 0.0)
    try:
        epsilon = float(raw_eps)
    except ValueError:
        raise _config_error("epsilon", f"{raw_eps!r} is not a number")
    if not (0.0 <= epsilon < 1.0):
        raise _config_error("epsilon", f"{epsilon:g} outside [0, 1)")
    if epsilon > 0.0:
        mode = str(_merged(args, "eps_mode", "random"))
        if mode not in ("random", "adversarial-high", "adversarial-low"):
            raise _config_error("eps_mode", f"unknown mode {mode!r}")
        est = EpsilonEstimator(est, epsilon, mode, 0)
    return est, est.tag


def _load_experiment_graph(args, seed: int) -> tuple[DirectedGraph, int | None]:
    source = _merged(args, "graph")
    if source is None:
        raise _config_error("graph", "no graph source given")
    source = str(source)
    trivalency = _merged(args, "i")
    trivalency = None if trivalency is None else _parse_int("i", trivalency, 1)
    if source.startswith("gen:"):
        parts = source.split(":")
        if len(parts) != 4:
            raise _config_error("graph", "generator spec is gen:<model>:<nodes>:<edges>")
        _, model, n_text, m_text = parts
        n = _parse_int("graph", n_text, 1)
        m = _parse_int("graph", m_text, 0)
        try:
            graph = generate_graph(n, m, model, trivalency or 1,
                                   derive_seed(seed, "graph"))
        except ValueError as exc:
            raise _config_error("graph", str(exc))
        return graph, trivalency or 1
    try:
        with open(source, encoding="utf-8") as fh:
            edge_text = fh.read()
    except OSError as exc:
        raise CliError("io", f"cannot read graph file {source}: {exc.strerror}")
    cost_path = _merged(args, "costs")
    cost_data = None
    if cost_path is not None:
        try:
            with open(str(cost_path), encoding="utf-8") as fh:
                cost_data = fh.read()
        except OSError as exc:
            raise CliError("io", f"cannot read cost file {cost_path}: {exc.strerror}")
    try:
        graph = load_graph(edge_text, 1, cost_data)
    except GraphFormatError as exc:
        raise CliError("io", str(exc))
    if trivalency is not None:
        try:
            graph = assign_trivalency_probabilities(graph, trivalency,
                                                    derive_seed(seed, "trivalency"))
        except ValueError as exc:
            raise _config_error("i", str(exc))
    return graph, trivalency


def _threads() -> int:
    raw = os.environ.get("PFIM_THREADS")
    if raw is None or raw == "":
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise _config_error("PFIM_THREADS", f"{raw!r} is not an integer")
    if value < 1:
        raise _config_error("PFIM_THREADS", "must be a positive integer")
    return value


def _policy_name(args) -> str:
    name = str(_merged(args, "policy", "enhanced"))
    if name not in ("uniform", "nonuniform", "enhanced"):
        raise _config_error("policy", f"unknown policy {name!r}")
    return name


def _check_policy_budget(graph: DirectedGraph, policy: str, budget: Fraction):
    if policy == "uniform":
        if budget.denominator != 1:
            raise _config_error("budget", "uniform policy needs an integer budget")
        if budget > graph.node_count:
            raise CliError("config", "budget exceeds node count under uniform cost")


# ---------------------------------------------------------------------------
# subcommands


def cmd_sweep_alpha(args) -> int:
    seed = _parse_int("seed", _merged(args, "seed", 0), 0)
    graph, trivalency = _load_experiment_graph(args, seed)
    alphas = _parse_alpha_list(_merged(args, "alpha", "0"))
    budgets = _parse_budget_list(_merged(args, "budget", "1"))
    realizations = _parse_int("realizations", _merged(args, "realizations", 100), 1)
    policy = _policy_name(args)
    estimator, tag = _build_estimator(args)
    threads = _threads()
    i_cell = "na" if trivalency is None else str(trivalency)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for alpha in alphas:
        for budget in budgets:
            _check_policy_budget(graph, policy, budget)
            config = PolicyConfig(policy, alpha, budget)
            result = evaluate_policy_sampled(graph, config, realizations,
                                             seed, estimator, threads)
            writer.writerow([
                fmt_g(alpha), str(budget), i_cell, policy, tag,
                str(realizations), fmt_g(result.mean_spread),
                fmt_g(result.std_error), fmt_g(result.mean_slots),
                fmt_g(result.mean_seeds), str(seed)])
    text = buffer.getvalue()
    out = _merged(args, "out")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(str(out), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def cmd_evaluate(args) -> int:
    seed = _parse_int("seed", _merged(args, "seed", 0), 0)
    graph, _ = _load_experiment_graph(args, seed)
    alphas = _parse_alpha_list(_merged(args, "alpha", "0"))
    budgets = _parse_budget_list(_merged(args, "budget", "1"))
    if len(alphas) != 1 or len(budgets) != 1:
        raise _config_error("alpha/budget", "evaluate takes a single cell")
    alpha, budget = alphas[0], budgets[0]
    policy = _policy_name(args)
    _check_policy_budget(graph, policy, budget)
    estimator, tag = _build_estimator(args)
    realizations = _parse_int("realizations", _merged(args, "realizations", 100), 1)
    config = PolicyConfig(policy, alpha, budget)

    exact_requested = tag == "exact"
    if exact_requested and graph.edge_count <= ENUMERATION_EDGE_LIMIT:
        result = evaluate_policy_exact(graph, config)
        mean, stderr = result.value, 0.0
    else:
        sampled = evaluate_policy_sampled(graph, config, realizations, seed,
                                          estimator, _threads())
        mean, stderr = sampled.mean_spread, sampled.std_error

    # transcript of the first sampled world, for inspection
    world_seed = seed
    realization = sample_full_realization(graph, derive_seed(world_seed, "realization"))
    run = run_policy(graph, config, realization, estimator,
                     derive_seed(world_seed, "policy"))
    base = _merged(args, "out")
    transcript_path = (str(base) if base is not None else "evaluate") + ".transcript.txt"
    with open(transcript_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(transcript_lines(run)) + "\n")
    print(f"mean={fmt_g(mean)} stderr={fmt_g(stderr)} transcript={transcript_path}")
    return 0


def _oracle_instances(count: int, seed: int):
    made = 0
    attempt = 0
    while made < count:
        attempt += 1
        n = 4 + attempt % 3
        m = min(2 * n, 10)
        try:
            g = generate_graph(n, m, "erdos-renyi", 1, derive_seed(seed, attempt))
        except ValueError:
            continue
        probs = []
        rng = random.Random(derive_seed(seed, "probs", attempt))
        for _ in range(g.edge_count):
            probs.append(round(rng.uniform(0.2, 0.9), 3))
        made += 1
        yield g.with_probabilities(probs)


def cmd_oracle_check(args) -> int:
    seed = _parse_int("seed", _merged(args, "seed", 7), 0)
    failures = 0

    if _merged(args, "graph") is not None:
        graph, _ = _load_experiment_graph(args, seed)
        if graph.edge_count > ENUMERATION_EDGE_LIMIT:
            print("skipped: alpha-1 guarantee (enumeration guard exceeded)")
            print("skipped: alpha-0 equivalence (enumeration guard exceeded)")
            print("skipped: estimator agreement (enumeration guard exceeded)")
            graphs = []
        else:
            graphs = [graph]
    else:
        graphs = list(_oracle_instances(5, seed))

    one_minus_inv_e = bounds_mod.bound_uniform(1.0)
    for k, g in enumerate(graphs):
        budget = min(2, g.node_count)
        config = PolicyConfig("uniform", 1.0, Fraction(budget))
        try:
            policy_value = evaluate_policy_exact(g, config).value
            optimum = optimal_full_feedback_adaptive(g, Fraction(budget))
        except InstanceTooLarge:
            print(f"skipped: alpha-1 guarantee instance {k} (guard exceeded)")
            continue
        ratio = policy_value / optimum
        if ratio >= one_minus_inv_e - 1e-9:
            print(f"ok: alpha-1 guarantee instance {k} ratio={fmt_g(ratio, 7)}")
        else:
            failures += 1
            print(f"FAIL: alpha-1 guarantee instance {k} ratio={fmt_g(ratio, 7)}")

    for k, g in enumerate(graphs):
        budget = min(2, g.node_count)
        realization = sample_full_realization(g, derive_seed(seed, "world", k))
        run = run_policy(g, PolicyConfig("uniform", 0.0, budget), realization,
                         ExactEstimator(), seed)
        greedy: list[int] = []
        empty = empty_partial(g)
        for _ in range(budget):
            best, best_gain = None, -1.0
            for v in range(g.node_count):
                if v in greedy:
                    continue
                with_v = exact_conditional_activation(g, greedy + [v], empty)
                base = exact_conditional_activation(g, greedy, empty)
                gain = with_v.expected_cascade - base.expected_cascade
                if gain > best_gain:
                    best, best_gain = v, gain
            greedy.append(best)
        chosen = [node for node, _ in run.schedule.entries]
        slots_ok = all(slot == 0 for _, slot in run.schedule.entries)
        if chosen == greedy and slots_ok:
            print(f"ok: alpha-0 equivalence instance {k} seeds={chosen}")
        else:
            failures += 1
            print(f"FAIL: alpha-0 equivalence instance {k} "
                  f"policy={chosen} greedy={greedy}")

    for k, g in enumerate(graphs[:2]):
        empty = empty_partial(g)
        seeds = [0]
        exact = exact_conditional_activation(g, seeds, empty)
        mc = MonteCarloEstimator(4000, derive_seed(seed, "mc", k)).activation(
            g, seeds, empty)
        bad = 0
        for v in range(g.node_count):
            p = exact.probability[v]
            sigma = (p * (1 - p) / 4000) ** 0.5
            if abs(mc.probability[v] - p) > 3 * sigma + 1e-12:
                bad += 1
        if bad == 0 and mc.zero_set == frozenset(
                v for v in range(g.node_count) if exact.probability[v] == 0.0):
            print(f"ok: estimator agreement instance {k}")
        else:
            failures += 1
            print(f"FAIL: estimator agreement instance {k} ({bad} nodes off)")

    violations = _observation_invariant_sweep(seed, rounds=200)
    if violations == 0:
        print("ok: observation invariants (200 randomized checks)")
    else:
        failures += 1
        print(f"FAIL: observation invariants ({violations} violations)")

    if graphs:
        g = graphs[0]
        config = PolicyConfig("uniform", 1.0, min(2, g.node_count))
        corrupted = EpsilonEstimator(ExactEstimator(), 0.9, "adversarial-low", 0)
        realization = sample_full_realization(g, derive_seed(seed, "corrupt"))
        run = run_policy(g, config, realization, corrupted, seed)
        exact_run = run_policy(g, config, realization, ExactEstimator(), seed)
        print(f"degraded: corrupted estimator spread={run.realized_cascade} "
              f"vs exact-backend spread={exact_run.realized_cascade} "
              "(adversarial-low eps=0.9, reported only)")

    if failures:
        print(f"oracle-check: {failures} failure(s)")
        return 1
    print("oracle-check: all checks passed")
    return 0


def _observation_invariant_sweep(seed: int, rounds: int) -> int:
    violations = 0
    rng = random.Random(derive_seed(seed, "obs-sweep"))
    for k in range(rounds):
        n = rng.randrange(3, 8)
        m = min(rng.randrange(0, 2 * n + 1), n * (n - 1))
        try:
            g = generate_graph(n, m, "erdos-renyi", 9, derive_seed(seed, "obs", k))
        except ValueError:
            continue
        realization = sample_full_realization(g, rng.randrange(1 << 30))
        seeds = rng.sample(range(n), rng.randrange(1, min(3, n) + 1))
        entries = tuple((v, idx) for idx, v in enumerate(seeds))
        schedule = SeedSchedule(entries)
        start = max(slot for _, slot in entries)
        previous = None
        for t in range(start, start + n + 2):
            psi = observe(g, realization, schedule, t)
            if not psi.is_consistent_with(realization):
                violations += 1
            if previous is not None and not previous.is_subset_of(psi):
                violations += 1
            previous = psi
        settle_bound = diameter(live_subgraph(g, realization)) + 1
        settled = observe(g, realization, schedule, start + settle_bound)
        later = observe(g, realization, schedule, start + settle_bound + 3)
        if settled.codes != later.codes:
            violations += 1
    return violations


def cmd_bound(args) -> int:
    variant = args.variant
    alpha = _parse_alpha_list(_merged(args, "alpha", "1"))
    if len(alpha) != 1:
        raise _config_error("alpha", "bound takes a single alpha")
    a = alpha[0]

    def need(name: str, value, caster=float):
        if value is None:
            raise _config_error(name, f"required for variant {variant}")
        try:
            return caster(value)
        except (ValueError, ZeroDivisionError):
            raise _config_error(name, f"{value!r} is not a number")

    try:
        if variant == "uniform":
            value = bounds_mod.bound_uniform(a)
        elif variant == "nonuniform":
            value = bounds_mod.bound_nonuniform(
                a, need("budget", _merged(args, "budget")),
                need("c_max", args.c_max))
        elif variant == "enhanced":
            value = bounds_mod.bound_enhanced(a)
        elif variant == "uniform-eps":
            value = bounds_mod.bound_uniform_eps(
                a, need("epsilon", _merged(args, "epsilon", 0.0)),
                need("n", args.n, int), need("f_star", args.f_star))
        elif variant == "nonuniform-eps":
            value = bounds_mod.bound_nonuniform_eps(
                a, need("epsilon", _merged(args, "epsilon", 0.0)),
                need("n", args.n, int), need("f_star", args.f_star),
                need("budget", _merged(args, "budget")),
                need("c_max", args.c_max), need("c_min", args.c_min))
        elif variant == "enhanced-eps":
            value = bounds_mod.bound_enhanced_eps(
                a, need("epsilon", _merged(args, "epsilon", 0.0)),
                need("n", args.n, int), need("f_star", args.f_star),
                need("budget", _merged(args, "budget")),
                need("c_min", args.c_min))
        else:
            raise _config_error("variant", f"unknown variant {variant!r}")
    except ValueError as exc:
        raise _config_error("bound", str(exc))
    marker = " (vacuous)" if bounds_mod.is_vacuous(value) else ""
    print(f"{variant} {fmt_g(value, 7)}{marker}")
    return 0


def cmd_gen_graph(args) -> int:
    seed = _parse_int("seed", _merged(args, "seed", 0), 0)
    n = _parse_int("nodes", args.nodes, 1)
    m = _parse_int("edges", args.edges, 0)
    model = args.model
    trivalency = _parse_int("i", _merged(args, "i", 1), 1)
    try:
        graph = generate_graph(n, m, model, trivalency, seed)
    except ValueError as exc:
        raise _config_error("gen-graph", str(exc))
    text = edge_list_text(graph)
    out = _merged(args, "out")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(str(out), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key-value settings file")
    parser.add_argument("--graph", help="edge-list path or gen:<model>:<n>:<m>")
    parser.add_argument("--costs", help="cost file path")
    parser.add_argument("--alpha", help="comma-separated thresholds in [0, 1]")
    parser.add_argument("--budget", help="comma-separated budgets")
    parser.add_argument("--i", help="trivalency index")
    parser.add_argument("--samples", help="monte carlo samples per estimate")
    parser.add_argument("--estimator", help="exact | mc | mc:<samples>")
    parser.add_argument("--epsilon", type=float, help="perturbation magnitude")
    parser.add_argument("--eps-mode", dest="eps_mode",
                        help="random | adversarial-high | adversarial-low")
    parser.add_argument("--realizations", help="sampled worlds per cell")
    parser.add_argument("--seed", help="base rng seed")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--policy", help="uniform | nonuniform | enhanced")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfim",
        description="Adaptive influence maximization under partial feedback")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("sweep-alpha", cmd_sweep_alpha), ("evaluate", cmd_evaluate),
                     ("oracle-check", cmd_oracle_check)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("bound")
    _add_common(p)
    p.add_argument("--variant", required=True,
                   choices=["uniform", "nonuniform", "enhanced", "uniform-eps",
                            "nonuniform-eps", "enhanced-eps"])
    p.add_argument("--n", help="node count (eps variants)")
    p.add_argument("--f-star", dest="f_star", help="optimal spread (eps variants)")
    p.add_argument("--c-max", dest="c_max", help="largest node cost")
    p.add_argument("--c-min", dest="c_min", help="smallest node cost")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("gen-graph")
    _add_common(p)
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--model", default="erdos-renyi",
                   choices=["erdos-renyi", "scale-free-ish"])
    p.set_defaults(func=cmd_gen_graph)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args._file_values = _read_config_file(args.config)
        else:
            args._file_values = {}
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except InstanceTooLarge as exc:
        print(f"error: guard: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
