"""Command-line harness: experiment sweeps, single evaluations, oracle
self-checks, bound calculators, and synthetic graph generation.

Each command takes only the options it reads (`_OPTIONS`). An option
left off the command line comes from a flat key-value config file
(``key = value`` lines, ``#`` comments) when one is given, else from
its default in that table. Errors, usage errors included, come out on
stderr as a single machine-parseable line ``error: <code>: <message>``
with a nonzero exit status; a budget is refused by `policies.check_budget`,
and an unwritable output path by `_check_writable`, before any cell runs.
The PFIM_THREADS environment variable caps how many worker processes the
realization loops may use (default 1); results are identical regardless
because per-world streams are indexed, not shared.
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
                    edge_list_text, generate_graph, load_graph, trivalency_levels)
from .oracles import ENUMERATION_EDGE_LIMIT, evaluate_policy_exact, evaluate_policy_sampled
from .policies import POLICY_KINDS, BudgetError, PolicyConfig, check_budget, transcript_lines

CSV_HEADER = ("alpha,budget,i,policy,estimator,realizations,"
              "mean_spread,stderr,mean_slots,mean_seeds,rng_seed")


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"error: {code}: {message}")


def _config_error(field: str, problem: str) -> CliError:
    return CliError("config", f"{field}: {problem}")


# ---------------------------------------------------------------------------
# config assembly


# the options each subcommand reads, with the default of each; None is
# unset. `samples`, `eps_mode` and `realizations` stay unset so that an
# explicit value can be told from the fallback (`_build_estimator`'s 1000
# samples and random mode, `_realizations`'s 100 worlds): a run that does
# not read one rejects it.
_EXPERIMENT = {"graph": None, "costs": None, "alpha": "0", "budget": "1", "i": None,
               "samples": None, "estimator": "mc", "epsilon": 0.0, "eps_mode": None,
               "realizations": None, "seed": 0, "out": None, "policy": "enhanced"}
_OPTIONS = {
    "sweep-alpha": _EXPERIMENT,
    "evaluate": _EXPERIMENT,
    "oracle-check": {"graph": None, "i": None, "seed": 7},
    "bound": {"alpha": "1", "epsilon": 0.0, "budget": None, "n": None, "f_star": None,
              "c_max": None, "c_min": None},
    "gen-graph": {"nodes": None, "edges": None, "i": 1, "seed": 0, "out": None},
}
# a config file may serve several subcommands: each reads its own keys
_CONFIG_KEYS = frozenset(_EXPERIMENT)


def _read_text(path, what: str) -> str:
    try:
        with open(str(path), encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError("io", f"cannot read {what} file {path}: {exc.strerror}")


def _write_text(path, what: str, text: str):
    try:
        with open(str(path), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError("io", f"cannot write {what} file {path}: {exc.strerror}")


def _check_writable(path, what: str):
    """Raise the io error that writing `path` would raise, before any
    work is done. An existing file keeps its bytes; a probe file is
    removed again."""
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise CliError("io", f"cannot write {what} file {path}: {exc.strerror}")
    if not existed:
        os.remove(path)


def _write_output(args, what: str, text: str):
    """Write to --out if given, else to stdout."""
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, what, text)


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
    spec = str(args.estimator).strip()
    samples = _parse_int("samples", 1000 if args.samples is None else args.samples, 1)
    if spec == "exact":
        if args.samples is not None:
            raise _config_error("samples", "not read: the exact estimator does not sample")
        est: Estimator = ExactEstimator()
    elif spec == "mc":
        est = MonteCarloEstimator(samples, 0)
    elif spec.startswith("mc:"):
        spec_samples = _parse_int("estimator", spec[3:], 1)
        if args.samples is not None and samples != spec_samples:
            raise _config_error("samples", f"{samples} differs from the {spec_samples} "
                                           f"of estimator {spec!r}")
        est = MonteCarloEstimator(spec_samples, 0)
    else:
        raise _config_error("estimator", f"unknown spec {spec!r}")
    try:
        epsilon = float(args.epsilon)
    except ValueError:
        raise _config_error("epsilon", f"{args.epsilon!r} is not a number")
    if not (0.0 <= epsilon < 1.0):
        raise _config_error("epsilon", f"{epsilon:g} outside [0, 1)")
    if epsilon > 0.0:
        mode = "random" if args.eps_mode is None else str(args.eps_mode)
        if mode not in EPS_MODES:
            raise _config_error("eps_mode", f"unknown mode {mode!r}")
        est = EpsilonEstimator(est, epsilon, mode, 0)
    elif args.eps_mode is not None:
        raise _config_error("eps_mode", "not read: epsilon is 0, so nothing is perturbed")
    return est, est.tag


def _load_experiment_graph(args, seed: int) -> tuple[DirectedGraph, int | None]:
    if args.graph is None:
        raise _config_error("graph", "no graph source given")
    source = str(args.graph)
    trivalency = None
    if args.i is not None:
        trivalency = _parse_int("i", args.i, 1)
        try:
            trivalency_levels(trivalency)
        except ValueError as exc:
            raise _config_error("i", str(exc))
    # oracle-check takes no cost file
    costs = getattr(args, "costs", None)
    if source.startswith("gen:"):
        if costs is not None:
            raise _config_error("costs", "not read: a generated graph has unit costs")
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
    cost_data = None if costs is None else _read_text(costs, "cost")
    try:
        graph = load_graph(edge_text, cost_data)
    except GraphFormatError as exc:
        raise CliError("io", str(exc))
    if trivalency is not None:
        graph = assign_trivalency_probabilities(graph, trivalency,
                                                derive_seed(seed, "trivalency"))
    return graph, trivalency


def _realizations(args) -> int:
    return _parse_int("realizations",
                      100 if args.realizations is None else args.realizations, 1)


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


def _cells(args, single: bool = False) -> tuple[int, DirectedGraph, str, list[PolicyConfig]]:
    """The seed, the graph, the CSV's `i` cell and one PolicyConfig per
    (alpha, budget) cell, alpha-major; exactly one cell if `single`. Every
    cell's budget is checked (`check_budget`) before any cell runs."""
    seed = _parse_int("seed", args.seed, 0)
    graph, trivalency = _load_experiment_graph(args, seed)
    alphas = _parse_alpha_list(args.alpha)
    budgets = _parse_budget_list(args.budget)
    if single and len(alphas) * len(budgets) != 1:
        raise _config_error("alpha/budget", "evaluate takes a single cell")
    policy = str(args.policy)
    if policy not in POLICY_KINDS:
        raise _config_error("policy", f"unknown policy {policy!r}")
    configs = [PolicyConfig(policy, alpha, budget) for alpha in alphas for budget in budgets]
    for config in configs:
        check_budget(graph, config)
    return seed, graph, "na" if trivalency is None else str(trivalency), configs


# ---------------------------------------------------------------------------
# subcommands


def cmd_sweep_alpha(args) -> int:
    estimator, tag = _build_estimator(args)
    seed, graph, i_cell, configs = _cells(args)
    realizations = _realizations(args)
    threads = _threads()
    if args.out is not None:
        _check_writable(args.out, "csv")

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for config in configs:
        result = evaluate_policy_sampled(graph, config, realizations,
                                         seed, estimator, threads)
        writer.writerow([
            fmt_g(config.alpha), str(config.budget), i_cell, config.kind, tag,
            str(realizations), fmt_g(result.mean_spread),
            fmt_g(result.std_error), fmt_g(result.mean_slots),
            fmt_g(result.mean_seeds), str(seed)])
    _write_output(args, "csv", buffer.getvalue())
    return 0


def cmd_evaluate(args) -> int:
    seed, graph, _, (config,) = _cells(args, single=True)
    estimator, tag = _build_estimator(args)

    enumerated = tag == "exact" and graph.edge_count <= ENUMERATION_EDGE_LIMIT
    if enumerated and args.realizations is not None:
        raise _config_error("realizations", "not read: the exact value of a graph "
                            f"with at most {ENUMERATION_EDGE_LIMIT} edges is enumerated")
    realizations, threads = (1, 1) if enumerated else (_realizations(args), _threads())
    transcript_path = f"{'evaluate' if args.out is None else args.out}.transcript.txt"
    _check_writable(transcript_path, "transcript")

    # the transcript is world 0 of the sample, drawn even when the value
    # is exact, for inspection
    sampled = evaluate_policy_sampled(graph, config, realizations, seed, estimator, threads)
    mean, stderr = ((evaluate_policy_exact(graph, config).value, 0.0) if enumerated
                    else (sampled.mean_spread, sampled.std_error))
    _write_text(transcript_path, "transcript",
                "\n".join(transcript_lines(sampled.world_zero)) + "\n")
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
    seed = _parse_int("seed", args.seed, 0)
    failures = 0

    def report(ok: bool, passed: str, failed: str):
        nonlocal failures
        failures += not ok
        print(f"ok: {passed}" if ok else f"FAIL: {failed}")

    if args.graph is not None:
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
    alpha = _parse_alpha_list(args.alpha)
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
    params = [need(k, getattr(args, k), int if k == "n" else float) for k in names]
    try:
        value = fn(a, *params)
    except ValueError as exc:
        raise _config_error("bound", str(exc))
    marker = " (vacuous)" if bounds_mod.is_vacuous(value) else ""
    print(f"{variant} {fmt_g(value, 7)}{marker}")
    return 0


def cmd_gen_graph(args) -> int:
    seed = _parse_int("seed", args.seed, 0)
    n = _parse_int("nodes", args.nodes, 1)
    m = _parse_int("edges", args.edges, 0)
    trivalency = _parse_int("i", args.i, 1)
    try:
        graph = generate_graph(n, m, args.model, trivalency, seed)
    except ValueError as exc:
        raise _config_error("gen-graph", str(exc))
    _write_output(args, "graph", edge_list_text(graph))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


_HELP = {
    "graph": "edge-list path or gen:<model>:<n>:<m>", "costs": "cost file path",
    "alpha": "comma-separated thresholds in [0, 1]", "budget": "comma-separated budgets",
    "i": "trivalency index", "samples": "monte carlo samples per estimate",
    "estimator": "exact | mc | mc:<samples>", "epsilon": "perturbation magnitude",
    "eps_mode": " | ".join(EPS_MODES), "realizations": "sampled worlds per cell",
    "seed": "base rng seed", "out": "output path", "policy": " | ".join(POLICY_KINDS),
    "n": "node count (eps variants)", "f_star": "optimal spread (eps variants)",
    "c_max": "largest node cost", "c_min": "smallest node cost",
    "nodes": "node count", "edges": "edge count",
}


class _Parser(argparse.ArgumentParser):
    """Usage errors come out as the one-line `error: usage: ...`."""

    def error(self, message):
        raise CliError("usage", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pfim",
                     description="Adaptive influence maximization under partial feedback")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("sweep-alpha", cmd_sweep_alpha), ("evaluate", cmd_evaluate),
                     ("oracle-check", cmd_oracle_check), ("bound", cmd_bound),
                     ("gen-graph", cmd_gen_graph)):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--config", help="flat key-value settings file")
        for key in _OPTIONS[name]:
            p.add_argument("--" + key.replace("_", "-"), help=_HELP[key],
                           required=key in ("nodes", "edges"))
    sub.choices["bound"].add_argument("--variant", required=True, choices=list(_BOUNDS))
    sub.choices["gen-graph"].add_argument("--model", default="erdos-renyi",
                                          choices=["erdos-renyi", "scale-free-ish"])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        file_values = _read_config_file(args.config) if args.config else {}
        # flag, then config file, then the table's default
        for key, default in _OPTIONS[args.command].items():
            if getattr(args, key) is None:
                setattr(args, key, file_values.get(key, default))
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except InstanceTooLarge as exc:
        print(f"error: guard: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(str(_config_error(exc.field, str(exc))), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
