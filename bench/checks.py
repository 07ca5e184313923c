"""Correctness checks on benchmark outputs, run outside the timed part.

Each function returns a list of problems, empty when the output passes.
They compare against computations made apart from the program
(`tests/bruteforce.py`, recomputed costs) or against properties every
correct output has; none compares against a stored copy of an output.
"""

import csv
import io
import math

from bruteforce import bfs_cascade

ONE_MINUS_INV_E = 1.0 - math.exp(-1.0)
TOLERANCE = 1e-9


def world_problems(graph, budget, live, run) -> list[str]:
    """A sampled world: the realized cascade equals a plain BFS from the
    schedule's seeds, and the seeds' summed cost is the run's total cost
    and within budget."""
    problems = []
    seeds = [node for node, _ in run.schedule.entries]
    want = bfs_cascade(graph, live, seeds)
    if run.realized_cascade != want:
        problems.append(f"realized cascade {run.realized_cascade}, BFS gives {want}")
    cost = sum(graph.costs[v] for v in seeds)
    if cost != run.total_cost:
        problems.append(f"total cost {run.total_cost}, seeds cost {cost}")
    if cost > budget:
        problems.append(f"seeds cost {cost} over budget {budget}")
    return problems


def blind_problems(run) -> list[str]:
    """At alpha = 0 no round waits, so every seed sits in slot 0."""
    late = [(v, s) for v, s in run.schedule.entries if s != 0]
    return [f"seeds placed after slot 0: {late}"] if late else []


def sweep_problems(csv_text: str, alphas: list[str], budget: int,
                   realizations: int, rng_seed: int, node_count: int) -> list[str]:
    """A `sweep-alpha` CSV for the uniform policy: one row per alpha, every
    world seeded exactly the budget (a mean of at most-`budget` integers
    equals `budget` only if each does), spreads between the seed count
    and the node count, and no waiting at alpha 0. Fields are read from
    both ends of a row, so a comma inside the estimator tag (see
    `csv_format_problems`) does not shift them."""
    lines = csv_text.split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    rows = [line.split(",") for line in lines[1:-1]]
    if [row[0] for row in rows] != alphas:
        return [f"CSV alpha column {[row[0] for row in rows]}, expected {alphas}"]
    problems = []
    for row in rows:
        alpha, count, seed = row[0], row[-6], row[-1]
        spread, stderr, slots, seeds = map(float, row[-5:-1])
        if count != str(realizations) or seed != str(rng_seed):
            problems.append(f"alpha {alpha}: realizations {count}, seed {seed}")
        if seeds != budget:
            problems.append(f"alpha {alpha}: mean seeds {seeds}, budget {budget}")
        if not budget <= spread <= node_count or stderr < 0.0:
            problems.append(f"alpha {alpha}: spread {spread} stderr {stderr} out of range")
        if alpha == "0" and slots != 0.0:
            problems.append(f"alpha 0 waited: mean slots {slots}")
    return problems


def csv_format_problems(csv_text: str) -> list[str]:
    """Every row has the header's number of fields, as a CSV reader
    splits them."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    bad = [row for row in rows[1:] if len(row) != len(rows[0])]
    if not bad:
        return []
    return [f"{len(bad)} of {len(rows) - 1} rows do not have the header's "
            f"{len(rows[0])} fields; first: {','.join(bad[0])}"]


def identical_problems(label: str, first: bytes, second: bytes) -> list[str]:
    if first == second:
        return []
    at = next((i for i, (a, b) in enumerate(zip(first, second)) if a != b),
              min(len(first), len(second)))
    return [f"{label}: outputs differ from byte {at}"]


def referee_problems(values: tuple[float, ...], optimum: float,
                     enumerated: tuple[float, ...] | None = None) -> list[str]:
    """One tiny instance: `values` are the exact values of the uniform
    policy at alpha 1, the non-uniform at 0.5 and the enhanced at 0.
    The alpha-1 policy earns at least 1 - 1/e of the full-feedback
    optimum, no policy beats the optimum, and each exact value matches
    the literal enumeration over worlds when one is given."""
    problems = []
    if values[0] < ONE_MINUS_INV_E * optimum - TOLERANCE:
        problems.append(f"alpha-1 ratio {values[0] / optimum:.9f} below 1-1/e")
    for v in values:
        if v > optimum + TOLERANCE:
            problems.append(f"policy value {v!r} above the optimum {optimum!r}")
    if enumerated is not None:
        for v, e in zip(values, enumerated, strict=True):
            if abs(v - e) > TOLERANCE:
                problems.append(f"exact value {v!r}, enumeration gives {e!r}")
    return problems
