"""The four benchmark workloads.

A workload is built from the run's seed (that is its set-up) and then
runs rounds: `run_round(r)` does one whole round of operations and
returns one output per operation. `problems(r, outputs)` checks a
round's outputs outside the timed part and returns, per operation, the
problems found. `rate` turns round times and outputs into operations
per second.

World streams: `evaluate_policy_sampled` gives world w of base seed s
the stream s + w, so nearby base seeds share worlds. Every base seed
used here is hashed from (run seed, workload, round) and lies far from
every other.
"""

import os
import random
from fractions import Fraction

import checks
from bruteforce import bfs_cascade, policy_value_by_enumeration
# Layer functions are called through their modules so that the traced
# run's wrappers, installed on those modules, see the calls.
from pfim import cli, diffusion, graph, oracles, policies
from pfim._util import derive_seed
from pfim.estimation import EpsilonEstimator, ExactEstimator, MonteCarloEstimator
from pfim.policies import PolicyConfig


class Workload:
    round_size = 1
    cycle = 1   # a run ends only after a whole number of this many rounds

    @staticmethod
    def work(outputs: list) -> int:
        """Timed operations (worlds or instances) among a round's outputs."""
        return len(outputs)

    def known_faults(self, r: int, outputs: list) -> list[list[str]]:
        """Per operation, what a check finds wrong because of a program
        fault named in CHANGES.md. The operation counts as failed but not
        as wrong. Kept apart from `problems`, so that no other check is
        excused."""
        return [[]] * len(outputs)

    def keep(self, outputs: list) -> list:
        """What `work` and `rate` need of a round's checked outputs."""
        return outputs

    def rate(self, times: list[float], outputs: list[list]) -> float:
        """Operations completed per second of (scaled) round time, from
        the kept outputs of each round."""
        return sum(map(self.work, outputs)) / sum(times)


class SampledWorlds(Workload):
    """`feedback` (alpha 0.8) and `blind` (alpha 0): the acceptance
    feedback-trend cell. Enhanced policy, budget 16, on the 200-node,
    800-edge Erdos-Renyi graph (i = 40, graph seed 2024), Monte Carlo with
    30 samples, in one process. One operation is one sampled world; a
    round is one world."""

    budget = Fraction(16)

    def __init__(self, name: str, alpha: float, seed: int, outdir: str):
        self.graph = graph.generate_graph(200, 800, "erdos-renyi", 40, 2024)
        self.config = PolicyConfig("enhanced", alpha, self.budget)
        self.estimator = MonteCarloEstimator(30, 0)
        self.base = derive_seed(seed, name)

    def run_round(self, r: int) -> list:
        world_seed = self.base + r
        realization = diffusion.sample_full_realization(
            self.graph, derive_seed(world_seed, "realization"))
        run = policies.run_policy(self.graph, self.config, realization, self.estimator,
                                  derive_seed(world_seed, "policy"))
        return [(realization.live, run)]

    def problems(self, r: int, outputs: list) -> list[list[str]]:
        found = []
        for live, run in outputs:
            p = checks.world_problems(self.graph, self.budget, live, run)
            if self.config.alpha == 0.0:
                p += checks.blind_problems(run)
            found.append(p)
        return found

    def keep(self, outputs: list) -> list:
        """The arm of each world; the world itself is dropped."""
        return [run.arm for _, run in outputs]

    def rate(self, times: list[float], outputs: list[list]) -> float:
        """Worlds per second with the enhanced policy's fair coin taken at
        its expectation: 2 / (mean single-arm world time + mean greedy-arm
        world time). A greedy-arm world costs over ten single-arm ones, so
        the share of each arm in a run would swing a plain count by about
        10% from seed to seed."""
        by_arm: dict[str, list[float]] = {"single": [], "greedy": []}
        for t, arms in zip(times, outputs):
            by_arm[arms[0]].append(t)
        if not by_arm["single"] or not by_arm["greedy"]:
            return super().rate(times, outputs)
        return 2.0 / (sum(by_arm["single"]) / len(by_arm["single"])
                      + sum(by_arm["greedy"]) / len(by_arm["greedy"]))


class PerturbedSweep(Workload):
    """`perturbed`: `pfim sweep-alpha` through `cli.main` with two pool
    workers (PFIM_THREADS=2) on a generated graph file (60 nodes, 240
    edges, i = 40, graph seed 7). Uniform policy, budget 3, the epsilon
    0.2 random-mode wrapper around Monte Carlo with 10 samples, alpha 0
    and 1, 20 worlds per cell. A round is one sweep: each world is one
    operation, and the CSV file it writes is one more. With 20 worlds a
    cell splits into chunks of 16 and 4 under the pool's chunksize of 16.

    The CSV operation fails every time today: the estimator tag
    `eps(0.2,random)+mc(10)` is written unquoted, so a CSV reader sees
    12 fields under the 11-field header. It is counted as failed, with
    the cause, and the world checks read their fields from both ends of
    the row."""

    alphas = ["0", "1"]
    budget = 3
    worlds = 20
    round_size = 2 * worlds + 1

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.graph_path = os.path.join(outdir, "perturbed.edges")
        self.csv_path = os.path.join(outdir, "perturbed.csv")
        if cli.main(["gen-graph", "--nodes", "60", "--edges", "240", "--i", "40",
                     "--seed", "7", "--out", self.graph_path]) != 0:
            raise RuntimeError("gen-graph failed")
        with open(self.graph_path, encoding="utf-8") as fh:
            self.graph = graph.load_graph(fh.read())
        os.environ["PFIM_THREADS"] = "2"

    def sweep_seed(self, r: int) -> int:
        return derive_seed(self.seed, "perturbed", r)

    def sweep(self, r: int) -> str:
        argv = ["sweep-alpha", "--graph", self.graph_path, "--alpha", ",".join(self.alphas),
                "--budget", str(self.budget), "--policy", "uniform", "--estimator", "mc",
                "--samples", "10", "--epsilon", "0.2", "--eps-mode", "random",
                "--realizations", str(self.worlds), "--seed", str(self.sweep_seed(r)),
                "--out", self.csv_path]
        if cli.main(argv) != 0:
            raise RuntimeError("sweep-alpha failed")
        with open(self.csv_path, encoding="utf-8", newline="") as fh:
            return fh.read()

    def run_round(self, r: int) -> list:
        return [self.sweep(r)] * self.round_size

    def problems(self, r: int, outputs: list) -> list[list[str]]:
        csv_text = outputs[0]
        p = checks.sweep_problems(csv_text, self.alphas, self.budget, self.worlds,
                                  self.sweep_seed(r), self.graph.node_count)
        if r == 0:
            os.environ["PFIM_THREADS"] = "1"
            try:
                single = self.sweep(r)
            finally:
                os.environ["PFIM_THREADS"] = "2"
            p += checks.identical_problems("PFIM_THREADS 1 against 2",
                                           single.encode(), csv_text.encode())
            p += self._world_problems(r)
        return [p] * (len(outputs) - 1) + [[]]

    def known_faults(self, r: int, outputs: list) -> list[list[str]]:
        """The CSV file itself is the round's last operation; its one check
        is the field count that the unquoted estimator tag breaks."""
        return [[]] * (len(outputs) - 1) + [checks.csv_format_problems(outputs[0])]

    def _world_problems(self, r: int) -> list[str]:
        """Worlds 0 and 1 of each cell, rerun with the estimator the CLI
        builds for these flags."""
        estimator = EpsilonEstimator(MonteCarloEstimator(10, 0), 0.2, "random", 0)
        problems = []
        for alpha in self.alphas:
            config = PolicyConfig("uniform", float(alpha), Fraction(self.budget))
            for w in range(2):
                world_seed = self.sweep_seed(r) + w
                realization = diffusion.sample_full_realization(
                    self.graph, derive_seed(world_seed, "realization"))
                run = policies.run_policy(self.graph, config, realization, estimator,
                                          derive_seed(world_seed, "policy"))
                problems += checks.world_problems(self.graph, self.budget,
                                                  realization.live, run)
                if len(run.schedule) != self.budget:
                    problems.append(f"alpha {alpha} world {w}: "
                                    f"{len(run.schedule)} seeds, budget {self.budget}")
        return problems

    @staticmethod
    def work(outputs: list) -> int:
        """The CSV operation is not a world."""
        return len(outputs) - 1


def tiny_instances() -> list:
    """The twenty tiny instances of the acceptance suite: 4 to 6 nodes, at
    most 10 edges with probabilities in [0.15, 0.9], budget 2 or 3."""
    out = []
    attempt = 0
    while len(out) < 20:
        attempt += 1
        n = 4 + attempt % 3
        m = min(2 * n - 2, 10)
        g = graph.generate_graph(n, m, "erdos-renyi", 45, derive_seed(101, attempt))
        rng = random.Random(derive_seed(102, attempt))
        probs = [round(rng.uniform(0.15, 0.9), 3) for _ in range(g.edge_count)]
        out.append((g.with_probabilities(probs), 2 + attempt % 2))
    return out


class Referee(Workload):
    """`referee`: on each tiny instance, the exact value of the uniform
    policy at alpha 1, the non-uniform at 0.5 and the enhanced at 0, and
    the full-feedback adaptive optimum. One operation is one instance and
    one round. Rounds take the twenty in an order drawn from the seed,
    and a run does whole cycles of twenty."""

    cycle = 20

    def __init__(self, seed: int, outdir: str):
        self.instances = tiny_instances()
        self.order = list(range(len(self.instances)))
        random.Random(derive_seed(seed, "referee")).shuffle(self.order)
        self.first: dict[int, tuple] = {}

    @staticmethod
    def configs(budget: Fraction) -> tuple:
        return (PolicyConfig("uniform", 1.0, budget),
                PolicyConfig("nonuniform", 0.5, budget),
                PolicyConfig("enhanced", 0.0, budget))

    def run_round(self, r: int) -> list:
        i = self.order[r % len(self.order)]
        g, b = self.instances[i]
        budget = Fraction(b)
        values = tuple(oracles.evaluate_policy_exact(g, c).value
                       for c in self.configs(budget))
        return [(i, values, oracles.optimal_full_feedback_adaptive(g, budget))]

    def problems(self, r: int, outputs: list) -> list[list[str]]:
        found = []
        for i, values, optimum in outputs:
            enumerated = self.enumerated(i) if i not in self.first else None
            p = checks.referee_problems(values, optimum, enumerated)
            if self.first.setdefault(i, (values, optimum)) != (values, optimum):
                p.append(f"instance {i}: values changed between rounds")
            found.append(p)
        return found

    def enumerated(self, i: int) -> tuple[float, ...]:
        """Policy values by running the live policies on every world
        (`policy_value_by_enumeration`). The enhanced value is half the
        best single node's expected BFS cascade plus half the greedy arm."""
        g, b = self.instances[i]
        budget = Fraction(b)
        values = []
        for config in self.configs(budget)[:2]:
            estimator = ExactEstimator()
            values.append(policy_value_by_enumeration(
                g, lambda real: policies.run_policy(g, config, real, estimator,
                                                    0).realized_cascade))
        single = max(policy_value_by_enumeration(g, lambda real: bfs_cascade(g, real.live, [v]))
                     for v in range(g.node_count))
        estimator = ExactEstimator()
        greedy = PolicyConfig("nonuniform", 0.0, budget)
        values.append(0.5 * single + 0.5 * policy_value_by_enumeration(
            g, lambda real: policies.run_policy(g, greedy, real, estimator, 0).realized_cascade))
        return tuple(values)


WORKLOADS = {
    "feedback": lambda seed, outdir: SampledWorlds("feedback", 0.8, seed, outdir),
    "blind": lambda seed, outdir: SampledWorlds("blind", 0.0, seed, outdir),
    "perturbed": PerturbedSweep,
    "referee": Referee,
}
