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
from . import checks
from .diffusion import SeedSchedule, empty_partial, sample_full_realization
from .estimation import (EPS_MODES, EpsilonEstimator, Estimator, ExactEstimator,
                         InstanceTooLarge, MonteCarloEstimator)
from .graph import (DirectedGraph, GraphFormatError, assign_trivalency_probabilities,
                    edge_list_text, generate_graph, load_graph)
from .oracles import (ENUMERATION_EDGE_LIMIT, evaluate_policy_exact,
                      evaluate_policy_sampled, sampled_world)
from .policies import POLICY_KINDS, PolicyConfig, run_policy, transcript_lines

CSV_HEADER = ("alpha,budget,i,policy,estimator,realizations,"
              "mean_spread,stderr,mean_slots,mean_seeds,rng_seed")


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"error: {code}: {message}")


def _config_error(field: str, problem: str) -> CliError:
    return CliError("config", f"{field}: {problem}")


# ---------------------------------------------------------------------------
# config assembly


_CONFIG_KEYS = {"graph", "costs", "alpha", "budget", "i", "samples", "estimator",
                "epsilon", "eps_mode", "realizations", "seed", "out", "policy"}


def _read_text(path, what: str) -> str:
    try:
        with open(str(path), encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError("io", f"cannot read {what} file {path}: {exc.strerror}")


def _write_output(args, text: str):
    """Write to --out if given, else to stdout."""
    out = _merged(args, "out")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(str(out), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _read_config_file(path: str) -> dict:
    text = _read_text(path, "config")
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
    return getattr(args, "_file_values", {}).get(key, fallback)


def _parse_list(field: str, text, parse, problem) -> list:
    """Comma-separated values; problem(value) names what is wrong with a
    parsed value, or is None."""
    out = []
    for token in str(text).split(","):
        try:
            value = parse(token)
        except (ValueError, ZeroDivisionError):
            raise _config_error(field, f"{token!r} is not a number")
        if why := problem(value):
            raise _config_error(field, why)
        out.append(value)
    return out


def _parse_alpha_list(text) -> list[float]:
    return _parse_list("alpha", text, float,
                       lambda a: None if 0.0 <= a <= 1.0 else f"{a:g} outside [0, 1]")


def _parse_budget_list(text) -> list[Fraction]:
    return _parse_list("budget", text, lambda t: Fraction(t.strip()),
                       lambda b: None if b > 0 else f"{b} must be positive")


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
    elif spec.startswith("mc:"):
        spec_samples = _parse_int("estimator", spec[3:], 1)
        if _merged(args, "samples") is not None and samples != spec_samples:
            raise _config_error("samples", f"{samples} differs from the {spec_samples} "
                                           f"of estimator {spec!r}")
        est = MonteCarloEstimator(spec_samples, 0)
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
        if mode not in EPS_MODES:
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
    edge_text = _read_text(source, "graph")
    cost_path = _merged(args, "costs")
    cost_data = None if cost_path is None else _read_text(cost_path, "cost")
    try:
        graph = load_graph(edge_text, cost_data)
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
    if name not in POLICY_KINDS:
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
    estimator, tag = _build_estimator(args)
    seed = _parse_int("seed", _merged(args, "seed", 0), 0)
    graph, trivalency = _load_experiment_graph(args, seed)
    alphas = _parse_alpha_list(_merged(args, "alpha", "0"))
    budgets = _parse_budget_list(_merged(args, "budget", "1"))
    realizations = _parse_int("realizations", _merged(args, "realizations", 100), 1)
    policy = _policy_name(args)
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
    _write_output(args, buffer.getvalue())
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

    # the transcript is world 0 of the sample, drawn even when the value
    # is exact, for inspection
    if tag == "exact" and graph.edge_count <= ENUMERATION_EDGE_LIMIT:
        mean, stderr = evaluate_policy_exact(graph, config).value, 0.0
        realization, policy_seed = sampled_world(graph, seed, 0)
        run = run_policy(graph, config, realization, estimator, policy_seed)
    else:
        sampled = evaluate_policy_sampled(graph, config, realizations, seed,
                                          estimator, _threads())
        mean, stderr, run = sampled.mean_spread, sampled.std_error, sampled.world_zero
    base = _merged(args, "out")
    transcript_path = (str(base) if base is not None else "evaluate") + ".transcript.txt"
    with open(transcript_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(transcript_lines(run)) + "\n")
    print(f"mean={fmt_g(mean)} stderr={fmt_g(stderr)} transcript={transcript_path}")
    return 0


def _oracle_instances(count: int, seed: int):
    for attempt in range(1, count + 1):
        n = 4 + attempt % 3
        g = generate_graph(n, min(2 * n, 10), "erdos-renyi", 1,
                           derive_seed(seed, attempt))
        rng = random.Random(derive_seed(seed, "probs", attempt))
        yield g.with_probabilities(
            [round(rng.uniform(0.2, 0.9), 3) for _ in range(g.edge_count)])


def cmd_oracle_check(args) -> int:
    seed = _parse_int("seed", _merged(args, "seed", 7), 0)
    failures = 0

    def report(ok: bool, passed: str, failed: str):
        nonlocal failures
        failures += not ok
        print(f"ok: {passed}" if ok else f"FAIL: {failed}")

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

    for k, g in enumerate(graphs):
        try:
            ratio = checks.guarantee_ratio(g, min(2, g.node_count))
        except InstanceTooLarge:
            print(f"skipped: alpha-1 guarantee instance {k} (guard exceeded)")
            continue
        line = f"alpha-1 guarantee instance {k} ratio={fmt_g(ratio, 7)}"
        report(ratio >= bounds_mod.bound_uniform(1.0) - 1e-9, line, line)

    for k, g in enumerate(graphs):
        budget = min(2, g.node_count)
        greedy = checks.greedy_nonadaptive(g, budget)
        realization = sample_full_realization(g, derive_seed(seed, "world", k))
        chosen, ok = checks.alpha_zero_seeds(g, budget, realization, greedy)
        report(ok, f"alpha-0 equivalence instance {k} seeds={chosen}",
               f"alpha-0 equivalence instance {k} policy={chosen} greedy={greedy}")

    for k, g in enumerate(graphs[:2]):
        off, zero_ok = checks.estimator_agreement(g, [0], empty_partial(g), 4000,
                                                  derive_seed(seed, "mc", k))
        report(off == 0 and zero_ok, f"estimator agreement instance {k}",
               f"estimator agreement instance {k} ({off} nodes off)")

    violations = _observation_invariant_sweep(seed, rounds=200)
    report(violations == 0, "observation invariants (200 randomized checks)",
           f"observation invariants ({violations} violations)")

    if graphs:
        g = graphs[0]
        realization = sample_full_realization(g, derive_seed(seed, "corrupt"))
        corrupted, exact = checks.corrupted_spreads(g, min(2, g.node_count),
                                                    realization, seed)
        print(f"degraded: corrupted estimator spread={corrupted} "
              f"vs exact-backend spread={exact} "
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
        schedule = SeedSchedule(tuple((v, idx) for idx, v in enumerate(seeds)))
        start = len(seeds) - 1
        violations += checks.observation_violations(
            g, realization, schedule, range(start, start + n + 2), 3)
    return violations


# bound variant: (calculator, parameters after alpha in call order)
_BOUNDS = {
    "uniform": (bounds_mod.bound_uniform, ()),
    "nonuniform": (bounds_mod.bound_nonuniform, ("budget", "c_max")),
    "enhanced": (bounds_mod.bound_enhanced, ()),
    "uniform-eps": (bounds_mod.bound_uniform_eps, ("epsilon", "n", "f_star")),
    "nonuniform-eps": (bounds_mod.bound_nonuniform_eps,
                       ("epsilon", "n", "f_star", "budget", "c_max", "c_min")),
    "enhanced-eps": (bounds_mod.bound_enhanced_eps,
                     ("epsilon", "n", "f_star", "budget", "c_min")),
}


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

    fn, names = _BOUNDS[variant]
    supplied = {"epsilon": _merged(args, "epsilon", 0.0), "n": args.n,
                "f_star": args.f_star, "budget": _merged(args, "budget"),
                "c_max": args.c_max, "c_min": args.c_min}
    params = [need(k, supplied[k], int if k == "n" else float) for k in names]
    try:
        value = fn(a, *params)
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
    _write_output(args, edge_list_text(graph))
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
    parser.add_argument("--epsilon", help="perturbation magnitude")
    parser.add_argument("--eps-mode", dest="eps_mode", help=" | ".join(EPS_MODES))
    parser.add_argument("--realizations", help="sampled worlds per cell")
    parser.add_argument("--seed", help="base rng seed")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--policy", help=" | ".join(POLICY_KINDS))


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
    p.add_argument("--variant", required=True, choices=list(_BOUNDS))
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
        config = getattr(args, "config", None)
        args._file_values = _read_config_file(config) if config else {}
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except InstanceTooLarge as exc:
        print(f"error: guard: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
