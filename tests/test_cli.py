import csv
import hashlib
import subprocess
import sys
from fractions import Fraction

import pytest

from pfim import cli, oracles
from pfim.cli import main
from pfim.graph import load_graph
from pfim.oracles import evaluate_policy_exact
from pfim.policies import PolicyConfig, transcript_lines

DIAMOND_TEXT = "0 1 0.5\n0 2 0.5\n1 3 0.5\n2 3 0.5\n"


@pytest.fixture
def diamond_path(tmp_path):
    p = tmp_path / "diamond.edges"
    p.write_text(DIAMOND_TEXT)
    return str(p)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cell_ran(*args, **kwargs):
    raise AssertionError("a cell ran")


class TestGenGraph:
    def test_writes_loadable_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        code, _, err = run_cli(["gen-graph", "--nodes", "12", "--edges", "20",
                                "--i", "30", "--seed", "5", "--out", str(out)],
                               capsys)
        assert code == 0 and err == ""
        g = load_graph(out.read_text())
        assert g.node_count == 12
        assert g.edge_count == 20
        assert set(e.probability for e in g.edges) <= {0.3, 0.03}

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for out in (a, b):
            run_cli(["gen-graph", "--nodes", "10", "--edges", "15",
                     "--seed", "9", "--out", str(out)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(["gen-graph", "--nodes", "4", "--edges", "3",
                                "--seed", "1"], capsys)
        assert code == 0
        assert load_graph(out).edge_count == 3


class TestSweepAlpha:
    def test_csv_shape(self, diamond_path, capsys):
        code, out, err = run_cli(
            ["sweep-alpha", "--graph", diamond_path, "--alpha", "0,0.5,1",
             "--budget", "1,2", "--policy", "uniform", "--estimator", "exact",
             "--realizations", "10", "--seed", "2"], capsys)
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == ("alpha,budget,i,policy,estimator,realizations,"
                            "mean_spread,stderr,mean_slots,mean_seeds,rng_seed")
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert first[3] == "uniform" and first[4] == "exact"

    def test_output_is_byte_stable(self, diamond_path, tmp_path, capsys):
        argv = ["sweep-alpha", "--graph", diamond_path, "--alpha", "0,1",
                "--budget", "2", "--policy", "enhanced", "--estimator", "mc",
                "--samples", "50", "--realizations", "25", "--seed", "3"]
        paths = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(argv + ["--out", str(out)], capsys)
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_config_file_with_flag_override(self, diamond_path, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("graph = {}\nalpha = 0\nbudget = 1\npolicy = uniform\n"
                       "estimator = exact\nrealizations = 5\nseed = 1\n"
                       .format(diamond_path))
        code, out, _ = run_cli(["sweep-alpha", "--config", str(cfg),
                                "--alpha", "1"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].startswith("1,")  # flag beat the file

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("graft = x\n")
        code, _, err = run_cli(["sweep-alpha", "--config", str(cfg)], capsys)
        assert code != 0
        assert err.startswith("error: config:")
        assert err.count("\n") == 1

    def test_sample_count_spellings_write_the_same_csv(self, diamond_path, capsys):
        argv = ["sweep-alpha", "--graph", diamond_path, "--alpha", "0,1",
                "--budget", "2", "--policy", "uniform", "--realizations", "5",
                "--seed", "2"]
        outs = [run_cli(argv + spelling, capsys) for spelling in (
            ["--estimator", "mc:20"], ["--estimator", "mc", "--samples", "20"],
            ["--estimator", "mc:20", "--samples", "20"])]
        assert outs[0] == outs[1] == outs[2]
        assert outs[0][1].splitlines()[1].split(",")[4] == "mc(20)"

    def test_generator_graph_source(self, capsys):
        code, out, _ = run_cli(
            ["sweep-alpha", "--graph", "gen:erdos-renyi:8:12", "--i", "40",
             "--alpha", "0", "--budget", "1", "--policy", "uniform",
             "--estimator", "exact", "--realizations", "5", "--seed", "4"],
            capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[2] == "40"


class TestEvaluate:
    def test_exact_delegation_matches_library(self, diamond_path, tmp_path,
                                              capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            ["evaluate", "--graph", diamond_path, "--alpha", "0.5",
             "--budget", "2", "--policy", "uniform", "--estimator", "exact",
             "--seed", "1"], capsys)
        assert code == 0
        mean = float(out.split("mean=")[1].split()[0])
        want = evaluate_policy_exact(
            load_graph(DIAMOND_TEXT), PolicyConfig("uniform", 0.5, Fraction(2))).value
        assert mean == pytest.approx(want, abs=1e-6)
        assert "stderr=0" in out

    def test_transcript_written(self, diamond_path, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            ["evaluate", "--graph", diamond_path, "--alpha", "1", "--budget", "2",
             "--policy", "uniform", "--estimator", "exact", "--seed", "0",
             "--out", str(tmp_path / "run")], capsys)
        assert code == 0
        transcript = (tmp_path / "run.transcript.txt").read_text()
        assert transcript.startswith("r=0 slot=0 action=select:")

    def test_transcript_is_world_zero_of_the_sample(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runs = []
        real = oracles._policy_runs

        def recorded(*args):
            cells = real(*args)
            runs.extend(cells)
            return cells

        monkeypatch.setattr(oracles, "_policy_runs", recorded)
        code, _, _ = run_cli(
            ["evaluate", "--graph", "gen:erdos-renyi:60:240", "--alpha", "0.8",
             "--budget", "4", "--policy", "uniform", "--estimator", "mc",
             "--samples", "10", "--realizations", "2", "--seed", "5", "--out", "w"], capsys)
        # two worlds, two runs: world 0 is not run again for the transcript
        assert code == 0 and len(runs) == 2
        assert (tmp_path / "w.transcript.txt").read_text() == (
            "\n".join(transcript_lines(runs[0])) + "\n")

    def test_budget_above_node_count_rejected(self, diamond_path, capsys):
        code, _, err = run_cli(
            ["evaluate", "--graph", diamond_path, "--alpha", "0", "--budget", "9",
             "--policy", "uniform", "--estimator", "exact"], capsys)
        assert code != 0
        assert err.strip() == \
            "error: config: budget: 9 exceeds the node count 4 under uniform cost"

    @pytest.mark.parametrize("given", ["flag", "file"])
    def test_exact_enumeration_rejects_realizations(self, diamond_path, tmp_path,
                                                   capsys, monkeypatch, given):
        # the diamond's exact value is enumerated: a world count is never read
        monkeypatch.chdir(tmp_path)
        argv = ["evaluate", "--graph", diamond_path, "--alpha", "0.5", "--budget", "2",
                "--estimator", "exact", "--seed", "4"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("mean=2.78125 stderr=0 ")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("realizations = 3\n")
        extra = {"flag": ["--realizations", "3"], "file": ["--config", str(cfg)]}[given]
        code, out, err = run_cli(argv + extra, capsys)
        assert (code, out) == (1, "")
        assert err == ("error: config: realizations: not read: the exact value of a "
                       "graph with at most 22 edges is enumerated\n")

    @pytest.mark.parametrize("given", ["flag", "file"])
    @pytest.mark.parametrize("key, value, problem", [
        ("samples", "7", "the exact estimator does not sample"),
        ("eps_mode", "adversarial-low", "epsilon is 0, so nothing is perturbed"),
    ], ids=["samples", "eps-mode"])
    def test_unread_option_is_a_config_error(self, diamond_path, tmp_path, capsys,
                                             monkeypatch, given, key, value, problem):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = {value}\n")
        extra = {"flag": ["--" + key.replace("_", "-"), value],
                 "file": ["--config", str(cfg)]}[given]
        code, out, err = run_cli(
            ["evaluate", "--graph", diamond_path, "--alpha", "0.5", "--budget", "2",
             "--estimator", "exact", "--seed", "4"] + extra, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: config: {key}: not read: {problem}\n"
        assert not (tmp_path / "evaluate.transcript.txt").exists()

    def test_multi_cell_rejected(self, diamond_path, capsys):
        code, _, err = run_cli(
            ["evaluate", "--graph", diamond_path, "--alpha", "0,1",
             "--budget", "2"], capsys)
        assert code != 0
        assert err.startswith("error: config:")

    def test_multi_cell_is_reported_before_the_budget(self, diamond_path, capsys):
        code, out, err = run_cli(
            ["evaluate", "--graph", diamond_path, "--alpha", "0,1", "--budget", "9",
             "--policy", "uniform", "--estimator", "exact"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: config: alpha/budget: evaluate takes a single cell\n"


class TestBound:
    def test_plain_variant(self, capsys):
        code, out, _ = run_cli(["bound", "--variant", "uniform", "--alpha", "1"],
                               capsys)
        assert code == 0
        assert out.strip() == "uniform 0.6321206"

    def test_eps_variant_with_example_numbers(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--variant", "uniform-eps", "--alpha", "1", "--epsilon",
             "0.1", "--n", "100", "--f-star", "50"], capsys)
        assert code == 0
        assert out.strip() == "uniform-eps 8.792288"

    def test_vacuous_marker(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--variant", "uniform-eps", "--alpha", "1", "--epsilon",
             "0.9", "--n", "100", "--f-star", "5"], capsys)
        assert code == 0
        assert out.strip().endswith("(vacuous)")

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(["bound", "--variant", "nonuniform",
                                "--alpha", "1"], capsys)
        assert code != 0
        assert err.startswith("error: config: budget:")


class TestErrors:
    def test_missing_graph(self, capsys):
        code, _, err = run_cli(["sweep-alpha", "--alpha", "0"], capsys)
        assert code != 0
        assert err.strip() == "error: config: graph: no graph source given"

    def test_unreadable_graph(self, capsys):
        code, _, err = run_cli(["sweep-alpha", "--graph", "/nope/missing.edges",
                                "--alpha", "0"], capsys)
        assert code != 0
        assert err.startswith("error: io:")

    @pytest.mark.parametrize("argv, what, name", [
        (["gen-graph", "--nodes", "4", "--edges", "3"], "graph", "g.edges"),
        (["sweep-alpha", "--estimator", "exact", "--realizations", "2"], "csv", "x.csv"),
        (["evaluate", "--estimator", "exact"], "transcript", "x"),
    ], ids=["gen-graph", "sweep-alpha", "evaluate"])
    def test_unwritable_output(self, diamond_path, tmp_path, capsys, monkeypatch,
                               argv, what, name):
        # the path is tried before any cell runs
        for evaluator in ("_sampled_sweep", "evaluate_policy_sampled", "evaluate_policy_exact"):
            monkeypatch.setattr(cli, evaluator, cell_ran)
        if argv[0] != "gen-graph":
            argv = argv + ["--graph", diamond_path, "--policy", "uniform"]
        out = tmp_path / "missing" / name
        code, _, err = run_cli(argv + ["--out", str(out)], capsys)
        written = f"{out}.transcript.txt" if what == "transcript" else out
        assert (code, err) == (1, f"error: io: cannot write {what} file {written}: "
                                  "No such file or directory\n")

    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "new"])
    def test_output_is_untouched_when_a_cell_raises(self, diamond_path, tmp_path,
                                                    monkeypatch, exists):
        out = tmp_path / "x.csv"
        if exists:
            out.write_bytes(b"kept\n")
        monkeypatch.setattr(cli, "_sampled_sweep", cell_ran)
        with pytest.raises(AssertionError, match="a cell ran"):
            main(["sweep-alpha", "--graph", diamond_path, "--policy", "uniform",
                  "--alpha", "0", "--out", str(out)])
        if exists:
            assert out.read_bytes() == b"kept\n"
        else:
            assert not out.exists()

    def test_bad_alpha(self, diamond_path, capsys):
        code, _, err = run_cli(["sweep-alpha", "--graph", diamond_path,
                                "--alpha", "1.5"], capsys)
        assert code != 0
        assert "alpha" in err

    def test_unknown_estimator(self, diamond_path, capsys):
        code, _, err = run_cli(["sweep-alpha", "--graph", diamond_path,
                                "--alpha", "0", "--estimator", "quantum"], capsys)
        assert code != 0
        assert err.startswith("error: config: estimator:")

    @pytest.mark.parametrize("argv", [
        ["sweep-alpha", "--epsilon", "abc"],
        ["bound", "--variant", "uniform-eps", "--epsilon", "abc"],
    ], ids=["sweep-alpha", "bound"])
    def test_bad_epsilon(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == "error: config: epsilon: 'abc' is not a number\n"

    @pytest.mark.parametrize("flags,file_text", [
        (["--estimator", "mc:20", "--samples", "50"], ""),
        (["--estimator", "mc:20"], "samples = 50\n"),
        ([], "estimator = mc:20\nsamples = 50\n"),
    ], ids=["flags", "flag-and-file", "file"])
    def test_sample_count_conflict(self, diamond_path, tmp_path, capsys,
                                   flags, file_text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(file_text)
        code, out, err = run_cli(
            ["sweep-alpha", "--config", str(cfg), "--graph", diamond_path,
             "--alpha", "0", "--budget", "1", "--policy", "uniform",
             "--realizations", "2"] + flags, capsys)
        assert (code, out) == (1, "")
        assert err == ("error: config: samples: 50 differs from the 20 of "
                       "estimator 'mc:20'\n")

    @pytest.mark.parametrize("command", ["sweep-alpha", "evaluate"])
    @pytest.mark.parametrize("policy, budget", [("nonuniform", "1/3"), ("enhanced", "1/2")])
    def test_budget_below_every_cost(self, diamond_path, capsys, command, policy, budget):
        code, out, err = run_cli([command, "--graph", diamond_path, "--policy", policy,
                                  "--budget", budget], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: config: budget: {budget} is below every node's cost\n"

    @pytest.mark.parametrize("command", ["sweep-alpha", "evaluate"])
    @pytest.mark.parametrize("extra, line", [
        (["--budget", "9"], "budget: 9 exceeds the node count 4 under uniform cost"),
        (["--budget", "3/2"], "budget: uniform policy needs an integer budget"),
        (["--costs", "COSTS"], "costs: uniform policy needs every node cost 1"),
    ], ids=["above-node-count", "fractional", "nonunit-cost"])
    def test_uniform_budget_rules(self, diamond_path, tmp_path, capsys, monkeypatch,
                                  command, extra, line):
        # the policy's own check, before any cell runs or any file is written
        monkeypatch.chdir(tmp_path)
        costs = tmp_path / "diamond.costs"
        costs.write_text("0 2\n")
        extra = [str(costs) if a == "COSTS" else a for a in extra]
        code, out, err = run_cli([command, "--graph", diamond_path, "--policy", "uniform"]
                                 + extra, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: config: {line}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["diamond.costs",
                                                              "diamond.edges"]

    @pytest.mark.parametrize("command", ["sweep-alpha", "evaluate"])
    @pytest.mark.parametrize("given", ["flag", "file"])
    def test_costs_with_a_generated_graph(self, tmp_path, capsys, command, given):
        # a generated graph has unit costs, so a cost file is never read
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("costs = /nonexistent\n")
        extra = {"flag": ["--costs", "/nonexistent"], "file": ["--config", str(cfg)]}[given]
        code, out, err = run_cli([command, "--graph", "gen:erdos-renyi:7:14", "--policy",
                                  "nonuniform", "--budget", "2", "--estimator", "exact"]
                                 + extra, capsys)
        assert (code, out) == (1, "")
        assert err == "error: config: costs: not read: a generated graph has unit costs\n"

    @pytest.mark.parametrize("command", ["sweep-alpha", "evaluate", "oracle-check"])
    @pytest.mark.parametrize("source", ["generator", "file"])
    def test_trivalency_index_above_100(self, diamond_path, capsys, command, source):
        graph = {"generator": "gen:erdos-renyi:3:2", "file": diamond_path}[source]
        code, out, err = run_cli([command, "--graph", graph, "--i", "200"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: config: i: trivalency index 200 puts i*0.01 above 1\n"

    @pytest.mark.parametrize("argv, threads", [
        (["sweep-alpha", "--realizations", "2"], "1"),
        (["sweep-alpha", "--realizations", "2"], "2"),
        (["evaluate"], "1"),
    ], ids=["sweep-alpha", "sweep-alpha-2-workers", "evaluate"])
    def test_unaffordable_best_single_node(self, diamond_path, tmp_path, capsys,
                                           monkeypatch, argv, threads):
        # nodes 1 to 3 fit the budget; node 0, the best alone, does not.
        # With 2 workers the refusal is raised in a worker process.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PFIM_THREADS", threads)
        costs = tmp_path / "diamond.costs"
        costs.write_text("0 9\n")
        code, out, err = run_cli(argv + [
            "--graph", diamond_path, "--costs", str(costs), "--policy", "enhanced",
            "--budget", "2", "--estimator", "exact"], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: config: budget: best single node 0 is unaffordable "
                       "(cost 9 exceeds budget 2)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["diamond.costs",
                                                              "diamond.edges"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("budgets, star, cost, budget", [
        ("4", 0, 5, 4), ("6,4", 1, 7, 6), ("4,6", 0, 5, 4), ("7,4", 0, 5, 4)])
    def test_sweep_refuses_the_first_failing_cell(self, tmp_path, capsys, monkeypatch,
                                                  threads, budgets, star, cost, budget):
        # hubs 0 (cost 5) and 1 (cost 7) tie in expectation, so the best single
        # node varies by world: 0 on worlds 0 to 2 and 4, 1 on worlds 3 and 5.
        # The budget-4 cell fails at world 0 and the budget-6 cell at world 3.
        # Cell by cell, the first cell in CSV order fails at its first
        # failing world; world 0 of another cell must not come first.
        monkeypatch.setenv("PFIM_THREADS", threads)
        edges, costs = tmp_path / "hubs.edges", tmp_path / "hubs.costs"
        edges.write_text("".join(f"{v // 4} {v + 2} 0.5\n" for v in range(8)))
        costs.write_text("0 5\n1 7\n")
        code, out, err = run_cli([
            "sweep-alpha", "--graph", str(edges), "--costs", str(costs), "--policy",
            "enhanced", "--alpha", "0,0.5", "--budget", budgets, "--samples", "4",
            "--realizations", "6", "--seed", "8"], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: config: budget: best single node {star} is unaffordable "
                       f"(cost {cost} exceeds budget {budget})\n")

    def test_bad_thread_env(self, diamond_path, capsys, monkeypatch):
        monkeypatch.setenv("PFIM_THREADS", "zero")
        code, _, err = run_cli(
            ["sweep-alpha", "--graph", diamond_path, "--alpha", "0",
             "--budget", "1", "--estimator", "exact", "--policy", "uniform",
             "--realizations", "2"], capsys)
        assert code != 0
        assert err.startswith("error: config: PFIM_THREADS")


EXPERIMENT_FLAGS = ("graph", "costs", "alpha", "budget", "i", "samples", "estimator",
                    "epsilon", "eps-mode", "realizations", "seed", "out", "policy")
# a run of each subcommand that succeeds, and the experiment flags it reads
BASE_ARGV = {"sweep-alpha": ["sweep-alpha"], "evaluate": ["evaluate"],
             "oracle-check": ["oracle-check"], "bound": ["bound", "--variant", "uniform"],
             "gen-graph": ["gen-graph", "--nodes", "4", "--edges", "3"]}
READS = {"sweep-alpha": set(EXPERIMENT_FLAGS), "evaluate": set(EXPERIMENT_FLAGS),
         "oracle-check": {"graph", "i", "seed"},
         "bound": {"alpha", "epsilon", "budget"}, "gen-graph": {"i", "seed", "out"}}
UNREAD = [(command, flag) for command in BASE_ARGV for flag in EXPERIMENT_FLAGS
          if flag not in READS[command]]


@pytest.mark.parametrize("command,flag", UNREAD, ids=[f"{c}-{f}" for c, f in UNREAD])
def test_unread_flag_is_a_usage_error(command, flag, capsys):
    assert len(UNREAD) == 30
    code, out, err = run_cli(BASE_ARGV[command] + [f"--{flag}", "1"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: usage: unrecognized arguments: --{flag} 1\n"


def test_usage_errors_are_one_line(capsys):
    code, out, err = run_cli(["bound"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: usage: the following arguments are required: --variant\n"


@pytest.mark.parametrize("argv,fallbacks,outputs", [
    # at epsilon 0 nothing reads `--eps-mode`, so giving it is an error
    (["sweep-alpha", "--graph", "DIAMOND"],
     ["--alpha", "0", "--budget", "1", "--estimator", "mc", "--epsilon", "0.0",
      "--realizations", "100", "--seed", "0", "--policy", "enhanced",
      "--samples", "1000"], []),
    # the exact value of the diamond is enumerated, so `--realizations`
    # is not read there and giving it is an error
    (["evaluate", "--graph", "DIAMOND", "--estimator", "exact"],
     ["--alpha", "0", "--budget", "1", "--epsilon", "0.0", "--seed", "0",
      "--policy", "enhanced"],
     ["evaluate.transcript.txt"]),
    (["oracle-check"], ["--seed", "7"], []),
    (["bound", "--variant", "enhanced-eps", "--n", "10", "--f-star", "5",
      "--budget", "2", "--c-min", "1"], ["--alpha", "1", "--epsilon", "0.0"], []),
    (["gen-graph", "--nodes", "10", "--edges", "15"],
     ["--i", "1", "--seed", "0", "--model", "erdos-renyi"], []),
], ids=["sweep-alpha", "evaluate", "oracle-check", "bound", "gen-graph"])
def test_defaults_are_the_spelled_out_fallbacks(argv, fallbacks, outputs, diamond_path,
                                                tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [diamond_path if a == "DIAMOND" else a for a in argv]
    results = []
    for extra in ([], fallbacks):
        code, out, err = run_cli(argv + extra, capsys)
        assert (code, err) == (0, "")
        results.append([out] + [(tmp_path / name).read_bytes() for name in outputs])
    assert results[0] == results[1]


def test_experiment_config_serves_gen_graph_and_bound(tmp_path, capsys):
    # keys a subcommand does not read are ignored, so one file serves all
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("graph = gen:erdos-renyi:9:9\nalpha = 0.5\nbudget = 3\ni = 30\n"
                   "seed = 4\nestimator = mc:20\nrealizations = 5\npolicy = uniform\n")
    config = ["--config", str(cfg)]
    gen = ["gen-graph", "--nodes", "10", "--edges", "15"]
    assert run_cli(gen + config, capsys) == run_cli(gen + ["--i", "30", "--seed", "4"], capsys)
    bound = ["bound", "--variant", "nonuniform", "--c-max", "1"]
    code, out, err = run_cli(bound + config, capsys)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(bound + ["--alpha", "0.5", "--budget", "3"], capsys)


def test_thread_env_does_not_change_numbers(diamond_path, capsys, monkeypatch):
    argv = ["sweep-alpha", "--graph", diamond_path, "--alpha", "0.5",
            "--budget", "2", "--policy", "uniform", "--estimator", "exact",
            "--realizations", "30", "--seed", "6"]
    code, single, _ = run_cli(argv, capsys)
    assert code == 0
    monkeypatch.setenv("PFIM_THREADS", "2")
    code, multi, _ = run_cli(argv, capsys)
    assert code == 0
    assert single == multi


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pfim.cli", "bound",
                           "--variant", "enhanced", "--alpha", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "enhanced 0.3160603"


def test_epsilon_sweep_rows_parse_to_header_width(diamond_path, capsys):
    code, out, _ = run_cli(
        ["sweep-alpha", "--graph", diamond_path, "--alpha", "0,1", "--budget", "2",
         "--policy", "uniform", "--estimator", "mc", "--samples", "20",
         "--epsilon", "0.2", "--eps-mode", "random", "--realizations", "5",
         "--seed", "2"], capsys)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert [len(row) for row in rows] == [11] * 3
    assert [row[4] for row in rows[1:]] == ["eps(0.2,random)+mc(20)"] * 2


def test_fixed_seed_outputs_keep_their_bytes(tmp_path, capsys, monkeypatch):
    """sha256 of fixed-seed outputs: the enhanced-MC sweep, a cheap
    evaluate at alpha 0.8 and one at alpha 0, the eps sweep, a run where
    the stall guard fires and the oracle-check report. A refactor keeps
    them."""
    monkeypatch.chdir(tmp_path)

    def digests(argv, *files):
        """sha256 of stdout, then of each named output file."""
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        return [hashlib.sha256(data).hexdigest() for data in
                [out.encode()] + [(tmp_path / name).read_bytes() for name in files]]

    digests(["gen-graph", "--nodes", "60", "--edges", "240", "--i", "40",
             "--seed", "7", "--out", "g.edges"])
    assert digests(
        ["sweep-alpha", "--graph", "g.edges", "--alpha", "0,0.4,0.8",
         "--budget", "4,6", "--policy", "enhanced", "--estimator", "mc",
         "--samples", "30", "--realizations", "30", "--seed", "1",
         "--out", "sweep.csv"], "sweep.csv")[1] == (
        "54b579b2489616cc405a6728d06c2eb920e509a9770ca9765e346324e42d6e0d")
    assert digests(
        ["evaluate", "--graph", "g.edges", "--alpha", "0.8", "--budget", "6",
         "--policy", "nonuniform", "--estimator", "mc", "--samples", "30",
         "--realizations", "2", "--seed", "3", "--out", "cheap"],
        "cheap.transcript.txt") == [
        "fcd043b4cfb9f4c5dfbb2905b418993de9082b884f5b4b9fb86f6727d8942ded",
        "05df8813e9bfb17b9a64de57677a5991c19682b9e6cbc6a836f59825462292a9"]
    # alpha = 0: every cond= and |O|= is an activation on a scanned state
    assert digests(
        ["evaluate", "--graph", "g.edges", "--alpha", "0", "--budget", "10",
         "--policy", "nonuniform", "--estimator", "mc", "--samples", "30",
         "--realizations", "4", "--seed", "3", "--out", "blind"],
        "blind.transcript.txt") == [
        "908ef7f23d418ccff3510e2d3215a58f47dfb574e9a73425f1d01088c3ad0ff1",
        "20730ffc15b5e7d85b6def4358ddcc0aa48f2284b9cd8571fa70773bc5ce48f1"]
    assert digests(
        ["sweep-alpha", "--graph", "g.edges", "--alpha", "0,0.8,1", "--budget", "3",
         "--policy", "uniform", "--estimator", "mc", "--samples", "20",
         "--epsilon", "0.2", "--eps-mode", "random", "--realizations", "10",
         "--seed", "2"]) == [
        "0c197133ae775c53b4861425fee84e42b76cb4aebd8d00517b88cbd9d8e21bb4"]
    # the adversarial-low wrapper holds the condition below alpha = 1, so
    # the stall guard forces the selections at slots 60 and 120
    assert digests(
        ["evaluate", "--graph", "g.edges", "--alpha", "1", "--budget", "3",
         "--policy", "uniform", "--estimator", "mc", "--samples", "10",
         "--epsilon", "0.9", "--eps-mode", "adversarial-low", "--realizations", "4",
         "--seed", "3", "--out", "stall"], "stall.transcript.txt") == [
        "bc0d60b9a980069a12059a55d9a81d5a0fad969b055dae22ace91f0ff84093f1",
        "07e640bf17df169eddc003f8af1257d939e2606ad69fab15ca2e40c6de71d1c8"]
    assert digests(["oracle-check"]) == [
        "55286e5aebd597119dfb1b7396234368ddbc7715acef9d3be09c46d83063171a"]


class TestOracleCheck:
    def test_built_in_instances_pass(self, capsys):
        code, out, _ = run_cli(["oracle-check"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "oracle-check: all checks passed"

    def test_graph_above_enumeration_guard_is_skipped(self, capsys):
        code, out, _ = run_cli(["oracle-check", "--graph", "gen:erdos-renyi:10:30"],
                               capsys)
        assert code == 0
        assert [ln for ln in out.splitlines() if ln.startswith("skipped:")] == [
            "skipped: alpha-1 guarantee (enumeration guard exceeded)",
            "skipped: alpha-0 equivalence (enumeration guard exceeded)",
            "skipped: estimator agreement (enumeration guard exceeded)"]
