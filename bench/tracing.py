"""Span tracing for the traced benchmark run, installed from outside pfim.

`install` replaces public functions of the pfim layers (and a few
methods) with wrappers that record one span per call: name, start, end,
parent span and optional attributes. Nothing under src/ changes; the
wrappers are removed again by the function `install` returns. Spans stay
in memory until the run ends. Pool workers forked while tracing is on
inherit the wrappers; each worker appends its finished root spans to a
spill file that the parent merges afterwards.

The two reach functions are leaves called up to tens of thousands of
times per operation. While a span is open, their calls are summed into
its attributes as "<name>#calls" and "<name>#ns" instead of becoming
spans of their own, which keeps the trace small.

Self time: a span's duration minus the part of its interval that its
child spans cover, minus its summed leaf time.
"""

import functools
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("graph", "diffusion", "reach", "estimation", "policies", "oracles", "cli")
LEAVES = ("reach.bfs", "reach.closure")


class Tracer:
    """In-memory span recorder. A span is [name, start_ns, end_ns,
    parent index or -1, attrs dict or None]; after `collect` each span
    also carries the pid of the process that recorded it."""

    def __init__(self, spill_dir: str):
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spill_dir = spill_dir
        self.spans: list[list] = []
        self.stack: list[int] = []

    def enter(self, name: str) -> list:
        if self.pid != os.getpid():
            # first call in a forked worker: drop the parent's spans
            self.pid = os.getpid()
            self.spans, self.stack = [], []
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def exit(self, rec: list) -> None:
        rec[2] = perf_counter_ns()
        self.stack.pop()
        if not self.stack and self.pid != self.main_pid:
            path = os.path.join(self.spill_dir, f"worker-{self.pid}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(self.spans) + "\n")
            self.spans = []

    def add(self, key: str, amount: int) -> None:
        """Add to an attribute of the innermost open span."""
        if self.stack and self.pid == os.getpid():
            rec = self.spans[self.stack[-1]]
            attrs = rec[4] if rec[4] is not None else {}
            attrs[key] = attrs.get(key, 0) + amount
            rec[4] = attrs

    def collect(self) -> list[list]:
        """This process's spans followed by every spilled worker batch,
        parent indices rebased, pid appended to each span."""
        out = [rec + [self.main_pid] for rec in self.spans]
        if os.path.isdir(self.spill_dir):
            for name in sorted(os.listdir(self.spill_dir)):
                pid = int(name[len("worker-"):-len(".jsonl")])
                with open(os.path.join(self.spill_dir, name), encoding="utf-8") as fh:
                    for line in fh:
                        base = len(out)
                        for rec in json.loads(line):
                            parent = rec[3] + base if rec[3] >= 0 else -1
                            out.append([rec[0], rec[1], rec[2], parent, rec[4], pid])
        return out


def _wrap(tracer: Tracer, name: str, fn, observe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                rec[4] = {**(rec[4] or {}), **observe(args, kwargs, result)}
            return result
        finally:
            tracer.exit(rec)
    return traced


def _wrap_leaf(tracer: Tracer, name: str, fn):
    as_span = _wrap(tracer, name, fn)
    calls, ns = f"{name}#calls", f"{name}#ns"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.stack or tracer.pid != os.getpid():
            return as_span(*args, **kwargs)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(ns, perf_counter_ns() - start)
            tracer.add(calls, 1)
    return traced


def _arg(args, kwargs, index: int, key: str, default=None):
    return args[index] if len(args) > index else kwargs.get(key, default)


def _observe_gains(args, kwargs, result):
    return {"candidates": len(result)}


def _observe_run(args, kwargs, result):
    alpha = _arg(args, kwargs, 1, "config").alpha
    selects = [rl for rl in result.rounds if rl.action == "select"]
    forced = sum(1 for rl in selects
                 if rl.condition_value is not None and rl.condition_value < alpha)
    return {"rounds": len(result.rounds), "waits": len(result.rounds) - len(selects),
            "selections": len(selects), "forced": forced}


def _observe_exact_eval(args, kwargs, result):
    return {"worlds": result.realization_count}


def _observe_sampled(args, kwargs, result):
    return {"threads": _arg(args, kwargs, 5, "threads", 1)}


# (module, attribute path, span name, observer)
HOOKS = (
    ("pfim.graph", "generate_graph", "graph.generate", None),
    ("pfim.graph", "load_graph", "graph.load", None),
    ("pfim.diffusion", "sample_full_realization", "diffusion.realization", None),
    ("pfim.diffusion", "observe", "diffusion.observe", None),
    ("pfim.diffusion", "cascade_size", "diffusion.cascade", None),
    ("pfim.reach", "closure_masks", "reach.closure", None),
    ("pfim.reach", "reachable_mask", "reach.bfs", None),
    ("pfim.estimation", "zero_probability_set", "estimation.zero_set", None),
    ("pfim.estimation", "exact_conditional_activation", "estimation.exact", None),
    ("pfim.estimation", "MonteCarloEstimator.activation", "estimation.activation", None),
    ("pfim.estimation", "Estimator.gains", "estimation.gains", _observe_gains),
    ("pfim.estimation", "MonteCarloEstimator.gains", "estimation.gains", _observe_gains),
    ("pfim.estimation", "Estimator.single_node_values", "estimation.single_node_values", None),
    ("pfim.estimation", "MonteCarloEstimator.single_node_values",
     "estimation.single_node_values", None),
    ("pfim.policies", "_GreedyCore.decide", "policies.decide", None),
    ("pfim.policies", "run_policy", "policies.run", _observe_run),
    ("pfim.oracles", "evaluate_policy_exact", "oracles.exact_eval", _observe_exact_eval),
    ("pfim.oracles", "optimal_full_feedback_adaptive", "oracles.optimum", None),
    ("pfim.oracles", "evaluate_policy_sampled", "oracles.sampled", _observe_sampled),
    ("pfim.cli", "main", "cli.main", None),
)


def _count_sampled_states(tracer: Tracer, batch):
    """Counter around the Monte Carlo completion sampler: a returned batch
    that was not in the estimator's cache before the call is a freshly
    sampled observation state of `samples` completions."""
    @functools.wraps(batch)
    def counted(self, *args, **kwargs):
        cached = {id(b) for b in self._batches.values()}
        result = batch(self, *args, **kwargs)
        if id(result) not in cached:
            tracer.add("states", 1)
            tracer.add("completions", self.samples)
        return result
    return counted


def install(tracer: Tracer):
    """Wrap every hook target; return a function that undoes it.

    A module-level function is replaced wherever a pfim module holds a
    reference to it (``from .reach import reachable_mask`` copies the
    name). A missing target raises LookupError: a renamed or removed
    function would otherwise leave its metrics at 0, which reads as a
    gain.
    """
    import pfim.cli  # noqa: F401  (loads every layer)

    targets = []
    for module_name, path, span, observe in HOOKS:
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = (vars(owner).get(attr) if outer and owner is not None
                    else getattr(owner, attr, None))
        if original is None:
            raise LookupError(f"hook target {module_name}.{path} is missing")
        targets.append((owner if outer else None, attr, original, span, observe))
    mc = sys.modules["pfim.estimation"].MonteCarloEstimator
    if "_batch" not in vars(mc) or "_batches" not in vars(mc(1, 0)):
        raise LookupError("MonteCarloEstimator._batch or its _batches cache is missing")

    patches = []
    modules = [m for k, m in sorted(sys.modules.items())
               if (k == "pfim" or k.startswith("pfim.")) and m is not None]
    for owner, attr, original, span, observe in targets:
        if owner is not None:
            patches.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, span, original, observe))
            continue
        wrapper = (_wrap_leaf(tracer, span, original) if span in LEAVES
                   else _wrap(tracer, span, original, observe))
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                patches.append((module, key, original))
                setattr(module, key, wrapper)
    patches.append((mc, "_batch", vars(mc)["_batch"]))
    mc._batch = _count_sampled_states(tracer, vars(mc)["_batch"])

    def uninstall():
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
    return uninstall


def _leaf_ns(rec: list) -> int:
    return sum(v for k, v in (rec[4] or {}).items() if k.endswith("#ns"))


def self_times(spans: list[list]) -> list[int]:
    """Per span: duration minus the union of its children's intervals
    clipped to its own interval, minus its summed leaf time."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(i)
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0
        reach = start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered - _leaf_ns(rec))
    return out


def _in_subtree(spans, index: int, ancestor: int) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if parent == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], ops: int, setup_spans: list[list],
                  untraced_s: float, traced_s: float) -> dict[str, dict]:
    """Per-layer figures of one traced pass over `ops` operations, each
    as {"value", "unit"}. Counts and times are per operation;
    `graph.generate_s` is per set-up; ratios, the median world time and
    the tracing overhead stand alone.
    """
    selfs = self_times(spans)
    count = defaultdict(int)
    total = defaultdict(int)
    self_total = defaultdict(int)
    attrs = defaultdict(int)
    for rec, own in zip(spans, selfs):
        name = rec[0]
        count[name] += 1
        total[name] += rec[2] - rec[1]
        self_total[name] += own
        self_total[name.split(".")[0]] += own
        for key, value in (rec[4] or {}).items():
            attrs[f"{name}.{key}"] += value
            attrs[key] += value
            leaf, _, kind = key.partition("#")
            if kind == "calls":
                count[leaf] += value
            elif kind == "ns":
                total[leaf] += value
                self_total[leaf] += value
                self_total[leaf.split(".")[0]] += value

    # pool figures: worlds run by workers inside each sampled evaluation
    busy = capacity = 0
    max_worlds = 0
    for i, rec in enumerate(spans):
        threads = (rec[4] or {}).get("threads", 1)
        if rec[0] != "oracles.sampled" or threads < 2:
            continue
        capacity += threads * (rec[2] - rec[1])
        per_worker = defaultdict(int)
        for w in spans:
            if w[5] != rec[5] and w[3] < 0 and rec[1] <= w[1] <= rec[2]:
                busy += w[2] - w[1]
                if w[0] == "policies.run":
                    per_worker[w[5]] += 1
        max_worlds = max([max_worlds, *per_worker.values()])

    cli_overhead = 0
    for i, rec in enumerate(spans):
        if rec[0] == "cli.main":
            inner = sum(s[2] - s[1] for j, s in enumerate(spans)
                        if s[0] == "oracles.sampled" and _in_subtree(spans, j, i))
            cli_overhead += rec[2] - rec[1] - inner

    selections = attrs["policies.run.selections"]
    world_ms = [(r[2] - r[1]) * 1e-6 for r in spans if r[0] == "policies.run"]

    def calls(n):
        return n / ops, "1/op"

    def secs(t_ns):
        return t_ns * 1e-9 / ops, "s/op"

    m = {
        "estimation.activation_calls": calls(count["estimation.activation"]),
        "estimation.activation_self_s": secs(self_total["estimation.activation"]),
        "estimation.states_sampled": calls(attrs["states"]),
        "estimation.completions_sampled": calls(attrs["completions"]),
        "estimation.gains_calls": calls(count["estimation.gains"]),
        "estimation.gain_candidates": calls(attrs["estimation.gains.candidates"]),
        "estimation.gains_self_s": secs(self_total["estimation.gains"]),
        "estimation.single_node_values_s": secs(total["estimation.single_node_values"]),
        "estimation.zero_set_calls": calls(count["estimation.zero_set"]),
        "estimation.zero_set_s": secs(total["estimation.zero_set"]),
        "estimation.exact_calls": calls(count["estimation.exact"]),
        "estimation.exact_s": secs(total["estimation.exact"]),
        "reach.closure_calls": calls(count["reach.closure"]),
        "reach.closure_s": secs(total["reach.closure"]),
        "reach.bfs_calls": calls(count["reach.bfs"]),
        "reach.bfs_s": secs(total["reach.bfs"]),
        "reach.closures_per_selection": (
            count["reach.closure"] / selections if selections else 0.0, "ratio"),
        "diffusion.observe_calls": calls(count["diffusion.observe"]),
        "diffusion.observe_s": secs(total["diffusion.observe"]),
        "diffusion.realization_s": secs(total["diffusion.realization"]),
        "diffusion.cascade_s": secs(total["diffusion.cascade"]),
        "policies.rounds": calls(attrs["policies.run.rounds"]),
        "policies.waits": calls(attrs["policies.run.waits"]),
        "policies.selections": calls(selections),
        "policies.forced_selections": calls(attrs["policies.run.forced"]),
        "policies.decide_self_s": secs(self_total["policies.decide"]),
        "policies.world_p50_ms": (statistics.median(world_ms) if world_ms else 0.0, "ms"),
        "oracles.exact_eval_s": secs(total["oracles.exact_eval"]),
        "oracles.optimum_s": secs(total["oracles.optimum"]),
        "oracles.enumerated_worlds": calls(attrs["oracles.exact_eval.worlds"]),
        "oracles.pool_efficiency": (busy / capacity if capacity else 0.0, "ratio"),
        "oracles.max_worlds_per_worker": (float(max_worlds), "count"),
        "graph.generate_s": (sum(r[2] - r[1] for r in setup_spans
                                 if r[0] == "graph.generate") * 1e-9, "s"),
        "graph.load_s": secs(total["graph.load"]),
        "cli.overhead_s": secs(cli_overhead),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = secs(self_total[layer])
    m["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
