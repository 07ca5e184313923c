"""Adaptive influence maximization under partial feedback.

The library models independent-cascade diffusion on directed graphs where
a planner seeds nodes one at a time and only sees the outcome edges within
a growing radius of each seed. Seeding policies trade off waiting for more
feedback against spending budget early, governed by an activation-share
threshold; estimation backends, brute-force oracles for small instances,
and closed-form guarantee bounds round out the toolkit.
"""

from .graph import (DirectedGraph, Edge, GraphFormatError,
                    assign_trivalency_probabilities, edge_list_text,
                    generate_graph, load_costs, load_graph)
from .diffusion import (EdgeState, FullRealization, PartialRealization,
                        SeedSchedule, cascade_size, empty_partial, observe,
                        sample_full_realization)
from .estimation import (ActivationEstimate, EpsilonEstimator, Estimator,
                         ExactEstimator, InstanceTooLarge, MonteCarloEstimator,
                         exact_conditional_activation, zero_probability_set)
from .policies import (PolicyConfig, PolicyRun, RoundLog, best_single_node,
                       run_policy, transcript_lines)
from .oracles import (ExactEvaluation, SampledEvaluation, evaluate_policy_exact,
                      evaluate_policy_sampled, optimal_full_feedback_adaptive)
from .bounds import (bound_enhanced, bound_enhanced_eps, bound_nonuniform,
                     bound_nonuniform_eps, bound_uniform, bound_uniform_eps,
                     is_vacuous)

__version__ = "0.1.0"

__all__ = [
    "DirectedGraph", "Edge", "GraphFormatError",
    "assign_trivalency_probabilities", "edge_list_text",
    "generate_graph", "load_costs", "load_graph",
    "EdgeState", "FullRealization", "PartialRealization", "SeedSchedule",
    "cascade_size", "empty_partial", "observe", "sample_full_realization",
    "ActivationEstimate", "EpsilonEstimator", "Estimator", "ExactEstimator",
    "InstanceTooLarge", "MonteCarloEstimator", "exact_conditional_activation",
    "zero_probability_set",
    "PolicyConfig", "PolicyRun", "RoundLog", "best_single_node",
    "run_policy", "transcript_lines",
    "ExactEvaluation", "SampledEvaluation", "evaluate_policy_exact",
    "evaluate_policy_sampled", "optimal_full_feedback_adaptive",
    "bound_enhanced", "bound_enhanced_eps", "bound_nonuniform",
    "bound_nonuniform_eps", "bound_uniform", "bound_uniform_eps", "is_vacuous",
    "__version__",
]
