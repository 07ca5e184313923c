"""Conditional activation estimators.

Given seeds S and a partial realization, the quantity of interest is the
conditional expected cascade: the sum over nodes of the probability that
a node ends up active once every unobserved edge is resolved by its own
coin. Three backends:

* exact: enumerates assignments of the unobserved edges that can still
  matter (source possibly active, target not already certainly active)
  and sums the integer weight of each reached node set. A float p is
  a / b exactly, b a power of two, so an edge weighs a when live and
  b - a when blocked, and an assignment weighs their product
  (`_assignments`). Each value, per node (`exact_conditional_activation`)
  or summed, is an integer divided once by the product of the b: the
  correctly rounded true probability. Guarded to 22 relevant edges.
* monte carlo: one coin snapshot per estimator and graph fixes, for
  each edge, the completions in which it is live. Each coin is bit for
  bit `random() < p`, one draw per edge, completion by completion; the
  snapshot reads a whole completion's draws with one `getrandbits` and
  compares every edge's at once by integer arithmetic, comparing the
  whole draw only in a tie on its first word. A completion of an
  observation state keeps the observed edges and takes each unobserved
  edge from the snapshot, so every query against the same state reuses
  the same worlds, and different states share their coins (common
  random numbers). A value is the count total over the completions (the
  summed sizes of the reached sets) divided once by the sample count:
  the correctly rounded sample mean. Marginal gains are then differences
  of pointwise-coupled counts, hence non-negative. A state scanned for
  gains holds a stacked view, one int per node in slots node by node:
  bit u*w + j is set when the node reaches u in completion j, w being
  the sample count rounded up to whole bytes. Every seed-set query there
  costs one OR and one bit count: `activation`, each candidate of
  `cascades_with` and of `gains`, and a single node's value. The view
  is solved for all completions at once, as the least fixpoint of a
  node's own bits joined with each possible out-edge's target view,
  masked to the completions where the edge is live. Its zero set grows
  the one kept for the last seed set, walking only from the seeds that
  set lacks. A newly scanned state derives its view from the one held
  for the state scanned before: only the nodes whose held view holds
  the source of an edge changed in that completion are solved again.
* epsilon wrapper: multiplies each cascade value produced by an inner
  backend by a factor in [1-eps, 1+eps], either drawn uniformly per
  query or pinned to an end of the interval. Its gain scan reads the
  inner f(S + c) of every candidate from one `cascades_with` query, so
  over Monte Carlo the values come from the state's stacked view.

`activation` is the one single-state query; `cascades_with` and `gains`
serve per-candidate values on one state.

Nodes that cannot be activated at all (cut off once observed-blocked
edges and zero-probability edges are removed) form the zero set; both
backends count them as exactly 0, and the exact backend counts
certainly-active nodes as exactly 1, since every assignment reaches them.
"""

import math
import random
import struct
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import chain

from ._util import derive_seed
from .diffusion import EdgeState, PartialRealization, empty_partial
from .graph import DirectedGraph
from .reach import closure_masks, closure_union, mask_nodes, node_mask, reachable_mask

EXACT_EDGE_LIMIT = 22


class InstanceTooLarge(RuntimeError):
    """Raised when an enumeration guard would be exceeded."""


@dataclass(frozen=True)
class ActivationEstimate:
    """The answer to one `activation` query: the backend's value for the
    summed per-node activation probabilities (the epsilon wrapper
    perturbs it), and the zero set, exactly `zero_probability_set`."""

    expected_cascade: float
    zero_set: frozenset[int]


def _check_state(graph: DirectedGraph, seeds, partial: PartialRealization,
                 candidates=()) -> frozenset[int]:
    if len(partial.codes) != graph.edge_count:
        raise ValueError("partial realization does not match graph edge count")
    seed_set = frozenset(seeds)
    for v in chain(seed_set, candidates):
        if not (0 <= v < graph.node_count):
            raise ValueError(f"seed node {v} out of range")
    return seed_set


def zero_probability_set(graph: DirectedGraph, seeds,
                         partial: PartialRealization) -> frozenset[int]:
    """Nodes with conditional activation probability exactly zero.

    Deterministic reachability: a node is outside the set iff some path
    from the seeds avoids observed-blocked edges and zero-probability
    unobserved edges. With no seeds every node qualifies.
    """
    seed_set = _check_state(graph, seeds, partial)
    return _still_unreached(graph, partial, range(graph.node_count), seed_set)


def _still_unreached(graph: DirectedGraph, partial: PartialRealization,
                     zero, seeds) -> frozenset[int]:
    """The nodes of `zero` that the seeds do not reach over possible edges
    (observed-live, or unobserved with p > 0). No possible edge may lead
    into `zero` from outside it, so the walk never leaves `zero`. Given
    the zero set of S and the seeds T, this is the zero set of S + T."""
    live, unobserved = EdgeState.LIVE, EdgeState.UNOBSERVED
    codes, edges, out_edges = partial.codes, graph.edges, graph.out_edges
    left = set(zero)
    stack = [v for v in seeds if v in left]
    left.difference_update(stack)
    while stack:
        for idx in out_edges[stack.pop()]:
            _, v, p = edges[idx]
            if v in left:
                c = codes[idx]
                if c == live or (c == unobserved and p > 0.0):
                    left.remove(v)
                    stack.append(v)
    return frozenset(left)


def _split_edges(graph: DirectedGraph, partial: PartialRealization, seed_set):
    """Classify edges for exact enumeration.

    Returns (certain adjacency, certainly-active mask, relevant unobserved
    edges, zero set). Certain adjacency holds observed-live edges plus
    unobserved probability-1 edges; relevant edges are the unobserved
    0 < p < 1 edges whose source can possibly activate (is outside the
    zero set) and whose target is not already certain.
    """
    certain_adj: list[list[int]] = [[] for _ in range(graph.node_count)]
    for c, e in zip(partial.codes, graph.edges):
        if c == EdgeState.LIVE or (c == EdgeState.UNOBSERVED and e.probability == 1.0):
            certain_adj[e.source].append(e.target)
    certain_mask = reachable_mask(certain_adj, node_mask(seed_set))
    zero = zero_probability_set(graph, seed_set, partial)
    relevant = [e for c, e in zip(partial.codes, graph.edges)
                if c == EdgeState.UNOBSERVED and 0.0 < e.probability < 1.0
                and e.source not in zero and not certain_mask >> e.target & 1]
    return certain_adj, certain_mask, relevant, zero


def _weight_table(ratios) -> list[int]:
    """The integer weight of each live/blocked assignment of the edges
    with exact probabilities a / b in `ratios`, indexed by its bits: a
    live edge weighs a, a blocked one b - a."""
    weights = [1]
    for a, b in ratios:
        weights = [w * (b - a) for w in weights] + [w * a for w in weights]
    return weights


def _assignments(probs) -> tuple[int, Iterator[tuple[int, int]]]:
    """The exact weights of the 2^len(probs) live/blocked assignments of
    a list of independent edges: (denominator, (bits, weight) pairs in
    ascending bits); bit k set means edge k is live.

    Every float p is a / b exactly, b a power of two
    (`float.as_integer_ratio`), so 1 - p is (b - a) / b exactly. An
    assignment weighs the product of its edges' numerators, an integer,
    and the weights sum to the denominator, the product of the b. The low
    and the high half of the edges get a weight table each and an
    assignment multiplies one entry of each, so a 22-edge enumeration
    holds two tables of 2^11 weights, not one of 2^22."""
    ratios = [p.as_integer_ratio() for p in probs]
    half = len(ratios) // 2
    low, high = _weight_table(ratios[:half]), _weight_table(ratios[half:])
    return (math.prod(b for _, b in ratios),
            ((j << half | i, wj * wi) for j, wj in enumerate(high)
             for i, wi in enumerate(low)))


def exact_conditional_activation(graph: DirectedGraph, seeds,
                                 partial: PartialRealization) -> list[float]:
    """Exact conditional activation probability of each node, in node
    order, by edge enumeration: each an integer weight over the
    denominator, divided once."""
    reached, denominator, _ = _exact_activation(graph, seeds, partial)
    weights = [0] * graph.node_count
    for mask, w in reached.items():
        for v in mask_nodes(mask):
            weights[v] += w
    return [w / denominator for w in weights]


def _exact_activation(graph: DirectedGraph, seeds,
                      partial: PartialRealization) -> tuple[dict[int, int], int, frozenset[int]]:
    """The exact law of the reached set, and the zero set, which the edge
    split computes on the way: (reached, denominator, zero set). `reached`
    maps each node mask that the seeds reach under some assignment of the
    relevant edges to the summed integer weight of those assignments; the
    weights sum to the denominator (`_assignments`)."""
    seed_set = _check_state(graph, seeds, partial)
    certain_adj, certain_mask, relevant, zero = _split_edges(graph, partial, seed_set)
    if len(relevant) > EXACT_EDGE_LIMIT:
        raise InstanceTooLarge(
            f"instance too large for exact backend: {len(relevant)} relevant "
            f"unobserved edges exceed the limit of {EXACT_EDGE_LIMIT}")

    n = graph.node_count
    # extra edges grouped by source so each assignment avoids rebuilding adjacency
    extra: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bit_pos, e in enumerate(relevant):
        extra[e.source].append((1 << bit_pos, e.target))
    # every assignment reaches the certain nodes, and they reach no other
    # node over certain edges: the walk starts from those with extra edges
    frontier = [u for u in mask_nodes(certain_mask) if extra[u]]
    denominator, weighted = _assignments([e.probability for e in relevant])
    reached: dict[int, int] = {}
    for bits, w in weighted:
        seen = certain_mask
        stack = frontier.copy()
        while stack:
            u = stack.pop()
            for ebit, v in extra[u]:
                if bits & ebit and not seen >> v & 1:
                    seen |= 1 << v
                    stack.append(v)
            for v in certain_adj[u]:
                if not seen >> v & 1:
                    seen |= 1 << v
                    stack.append(v)
        reached[seen] = reached.get(seen, 0) + w
    return reached, denominator, zero


class Estimator:
    """Backend interface. `activation` is the one single-state query: the
    expected cascade and the zero set of a seed set on an observation
    state. `cascades_with` batches the expected cascade of S + c over
    candidates c, `gains` the marginal gains, and `single_node_values` the
    unconditional value of each node alone."""

    # True when `gains` on one observation state are exact counts over one
    # fixed batch of completions: a candidate's gain for seeds S is then
    # never below, bit for bit, its gain for a superset of S on the same
    # state, and the greedy loop may scan lazily.
    submodular_gains = False

    def activation(self, graph: DirectedGraph, seeds,
                   partial: PartialRealization) -> ActivationEstimate:
        raise NotImplementedError

    def cascades_with(self, graph: DirectedGraph, seeds, partial: PartialRealization,
                      candidates) -> list[float]:
        """f(S + c) of each candidate, in the order given: bit for bit the
        `expected_cascade` of `activation` on S + c. This default asks
        `activation` once per candidate (so the epsilon wrapper perturbs
        each value); the Monte Carlo backend reads every value off the
        state's stacked view."""
        seed_set = _check_state(graph, seeds, partial, candidates)
        return [self.activation(graph, seed_set | {c}, partial).expected_cascade
                for c in candidates]

    def gains(self, graph: DirectedGraph, seeds, partial: PartialRealization,
              candidates) -> list[float]:
        """Marginal gain f(S + c) - f(S) of each candidate, in the order
        given, with f(S) read once.

        This default serves the exact backend. Its values are the correctly
        rounded true expectations, and rounding is monotone, so f(S + c) >=
        f(S) holds bit for bit and a negative gain raises. The sampled and
        perturbed backends override it.
        """
        seed_set = _check_state(graph, seeds, partial, candidates)
        base = self.activation(graph, seed_set, partial).expected_cascade
        gains = [v - base for v in self.cascades_with(graph, seed_set, partial, candidates)]
        below = [g for g in gains if g < 0.0]
        if below:
            raise AssertionError(f"exact gain {below[0]} below zero")
        return gains

    def single_node_values(self, graph: DirectedGraph) -> list[float]:
        """Unconditional expected cascade of each node seeded alone,
        queried in node order."""
        partial = empty_partial(graph)
        return [self.activation(graph, frozenset([v]), partial).expected_cascade
                for v in range(graph.node_count)]

    def reseeded(self, salt: int) -> "Estimator":
        """A copy whose random draws derive from (own seed, salt)."""
        return self

    def rewound(self) -> "Estimator":
        """A copy that answers as this estimator did when it was made,
        sharing its caches. Only the epsilon wrapper's answers depend on
        the order of its queries; every other backend is its own copy."""
        return self

    @property
    def tag(self) -> str:
        raise NotImplementedError


class _GraphCache(OrderedDict):
    """Least-recently-used memo for the last graph it was handed.

    Keys leave the graph out. A lookup with a different graph object
    empties the cache first, so a hit can only come from the graph the
    value was computed on; an id() in the key could be reused once its
    graph is dropped. A pickled copy, as sent to a pool worker, starts
    empty.
    """

    def __init__(self, size: int):
        super().__init__()
        self.size = size
        self.graph = None

    def __reduce__(self):
        return type(self), (self.size,)

    def lookup(self, graph: DirectedGraph, key):
        if graph is not self.graph:
            self.clear()
            self.graph = graph
        hit = self.get(key)
        if hit is not None:
            self.move_to_end(key)
        return hit

    def store(self, key, value):
        self[key] = value
        if len(self) > self.size:
            self.popitem(last=False)
        return value


class ExactEstimator(Estimator):
    """Enumeration backend with a small memo over (seeds, observation).
    f(S) is the summed integer weight of the reached sets times their
    sizes, divided once: the correctly rounded true expectation."""

    def __init__(self):
        # many states, not one: `reseeded` returns this same estimator, so
        # every world of a sampled evaluation re-asks the empty state
        self._cache = _GraphCache(128)

    def activation(self, graph, seeds, partial):
        seed_set = frozenset(seeds)
        key = (seed_set, partial.codes)
        hit = self._cache.lookup(graph, key)
        if hit is not None:
            return hit
        reached, denominator, zero = _exact_activation(graph, seed_set, partial)
        cascade = sum(w * mask.bit_count() for mask, w in reached.items())
        return self._cache.store(key, ActivationEstimate(cascade / denominator, zero))

    @property
    def tag(self):
        return "exact"


class _Completions:
    """The completions of one observation state as one stacked view, and
    the zero set kept for the latest seed set that asked:

    * `stacked`: one int per node, with bit u*w + j set when the node
      reaches u in completion j, w the sample count rounded up to whole
      bytes; the padding bits of each slot stay clear. Every seed-set
      query reads it: bit u*w + j of the seeds' union is set when
      completion j's reached set holds u.
    * `last_zero`: the seed set and its zero set (`zero_set`), the
      complement of its possible-edge reach. A greedy round asks with one
      more seed than the last, so the walk starts from the new seeds only
      and stays inside the kept zero set; any other seed set walks from
      scratch. A new batch starts from the zero set that the last
      propagated query on its state kept (`MonteCarloEstimator._zeros`).
    """

    __slots__ = ("stacked", "last_zero")

    def __init__(self, stacked: list[int], last_zero: tuple | None):
        self.stacked = stacked
        self.last_zero = last_zero

    def zero_set(self, graph: DirectedGraph, partial: PartialRealization,
                 seed_set: frozenset[int]) -> frozenset[int]:
        """`zero_probability_set` of the seeds on this state."""
        if self.last_zero is not None and self.last_zero[0] <= seed_set:
            earlier, zero = self.last_zero
            if earlier != seed_set:
                zero = _still_unreached(graph, partial, zero, seed_set - earlier)
        else:
            zero = zero_probability_set(graph, seed_set, partial)
        self.last_zero = (seed_set, zero)
        return zero


# every sampled world reseeds a new Monte Carlo estimator on the same
# graph, so the constants of its coin draws are kept here, not on it
_LANES = _GraphCache(1)


def _lanes(graph: DirectedGraph) -> tuple[list[int], int, int, int, int]:
    """The per-graph constants of a snapshot draw (`MonteCarloEstimator.
    _snapshot`), with edge e in the 64-bit lane at bit 64e: (thresholds,
    low, guard, lo, hi).

    An edge's coin is `random() < p`, that is X / 2^53 < p for the draw's
    53-bit integer X, which holds exactly when X < T = ceil(p * 2^53);
    p * 2^53 scales a float by a power of two, so T is exact. With Q = T
    >> 26, the lane of `lo` holds 2^32 + 32Q - 1 and that of `hi` 2^32 +
    32Q + 31. For a 32-bit a, bit 32 of lo's lane minus a is then set
    exactly when a < 32Q, and of hi's lane minus a exactly when a < 32Q +
    32 (except at p = 1, where a < 32 carries into bit 33 and reads as a
    tie, which the comparison resolves live). `low` masks each lane's
    low word a and `guard` its bit 32.
    Built once per graph object; the cache holds the last graph's only."""
    hit = _LANES.lookup(graph, None)
    if hit is not None:
        return hit
    m = graph.edge_count
    thresholds = [math.ceil(e.probability * 2 ** 53) for e in graph.edges]
    low = int.from_bytes(b"\xff\xff\xff\xff\0\0\0\0" * m, "little")
    guard = int.from_bytes(b"\0\0\0\0\x01\0\0\0" * m, "little")
    lo = int.from_bytes(struct.pack(f"<{m}Q", *[(1 << 32) + 32 * (t >> 26) - 1
                                                for t in thresholds]), "little")
    # guard >> 27 is 32 in every lane
    return _LANES.store(None, (thresholds, low, guard, lo, lo + (guard >> 27)))


class MonteCarloEstimator(Estimator):
    """Sampling backend over one coin snapshot per graph (`_snapshot`).

    Completion j of an observation state is its observed-live edges plus
    the unobserved edges whose coin j fell below their probability. Under
    independent cascade the unobserved edges are independent of the
    observed ones, so each completion is a draw from the conditional law;
    sharing the coins across states only couples their estimates. The
    value of a seed set S is its count total over the k completions,
    T(S) = sum over j of |R_j(S)| with R_j(S) the nodes S reaches in
    completion j, divided once by k: the correctly rounded sample mean.

    The alpha-gate's query on a state without a batch is one bit-parallel
    pass over the snapshot (`_propagate`). A batch (`_batch`) is made only
    for states scanned for gains, cascades with candidates
    (`cascades_with`, the epsilon wrapper's scan) or single-node values.
    It is the state's stacked view: node v's reach over all completions
    in one int, in slots of w bits node by node (w is k rounded up to
    whole bytes), bit u*w + j set when v reaches u in completion j. The
    union R of the seeds' views holds u in completion j exactly when
    R_j(S) does, so T(S) is R.bit_count() and T(S + c) is
    (R | stacked[c]).bit_count(): one OR and one bit count per query or
    candidate. `single_node_values` reads
    stacked[v].bit_count(). On a state with a batch, `activation` reads
    T(S) off the view, and its zero set grows the one kept for the last
    seed set when the seeds contain it (`_Completions.zero_set`). A new
    batch starts from the zero set that the last propagated query on its
    state computed.

    The view is computed for all completions at once, as the least
    fixpoint of view[v] = (the k low bits of slot v) | OR over the
    possible out-edges e = (v, x) of view[x] & W_e, where W_e is -1 for
    an observed-live edge and e's k coin bits repeated in every slot for
    an unobserved one (`_solve`). The estimator holds one batch. A state
    without one derives its view from the held one when that was made for
    the same graph (`_derived`): the two states share their coins, so
    completion j differs only where an edge's liveness there changed, and
    only the nodes whose held view holds such an edge's source in
    completion j can change. Those are reset and solved again; every
    other node keeps its int. Without a held batch (the first scan, or
    another graph) every node is solved. Both routes give the same view.

    A batch is a function of the observation alone, never of the seed
    set, so f(S), f(S + v), and every candidate in a selection round are
    evaluated against the same worlds. A gain is T(S + c) - T(S) over
    that batch divided by the sample count, so it is exactly submodular
    in the seed set.
    """

    submodular_gains = True

    def __init__(self, samples: int, rng_seed: int):
        if samples < 1:
            raise ValueError("sample count must be positive")
        self.samples = samples
        self.rng_seed = rng_seed
        # every batch that is read again is read on the state asked last
        self._batches = _GraphCache(1)
        self._snapshots = _GraphCache(1)
        # (seed set, zero set) of the last propagated query, keyed by its
        # codes: a batch built for those codes starts from it (`last_zero`)
        self._zeros = _GraphCache(1)

    def reseeded(self, salt):
        return MonteCarloEstimator(self.samples, derive_seed(self.rng_seed, salt))

    @property
    def tag(self):
        return f"mc({self.samples})"

    def _snapshot(self, graph: DirectedGraph) -> tuple[list[int], list[int]]:
        """The coin snapshot as (coins, windows). coins[idx] is edge idx's
        (samples + 1)-bit mask: bit j set when its coin in completion j
        fell below its probability, and bit `samples` set when the
        probability is positive. windows[idx] is its k coin bits, padded
        to whole bytes, repeated in each node's slot of the stacked view:
        bit u*w + j set when coin j is live.

        The coins are those of one `random()` per edge, completion by
        completion, from the stream seeded by (rng_seed, "completions",
        the empty state's codes), so the empty state's completions are
        those of a draw for that state alone. They are drawn a whole
        completion at a time: `getrandbits(64 * m)` reads the same 32-bit
        words that m `random()` calls read, the first word least
        significant, so lane e (bits 64e to 64e + 63) holds edge e's two
        words a and b, and its `random()` is X / 2^53 with X = (a >> 5)
        << 26 | b >> 6. The coin is X < T_e (`_lanes`): live when a < 32Q
        for Q = T_e >> 26, blocked when a >= 32Q + 32, and in between, a
        tie of probability 2^-27, X itself is compared. One subtraction
        per bound tests every lane's a at once, and up to 64 completions
        gather in each lane before the lanes are split into edges.

        A window is the k-bit coin times one bit per slot while a slot
        fits in 8 bytes (k <= 64); wider slots repeat the coin's bytes,
        since that product costs time quadratic in the coin's length."""
        hit = self._snapshots.lookup(graph, None)
        if hit is not None:
            return hit
        k, m = self.samples, graph.edge_count
        thresholds, low, guard, lo, hi = _lanes(graph)
        rng = random.Random(derive_seed(self.rng_seed, "completions",
                                        empty_partial(graph).codes))
        draw = rng.getrandbits
        coins = [1 << k if e.probability > 0.0 else 0 for e in graph.edges]
        for c0 in range(0, k, 64):
            gathered = 0
            for j in range(min(64, k - c0)):
                r = draw(64 * m)
                a = r & low
                live = lo - a & guard
                ties = (hi - a & guard) ^ live
                while ties:
                    e = (ties & -ties).bit_length() >> 6
                    ties &= ties - 1
                    words = r >> 64 * e
                    x = (words & 0xFFFFFFFF) >> 5 << 26 | (words >> 32 & 0xFFFFFFFF) >> 6
                    if x < thresholds[e]:
                        live |= 1 << 64 * e + 32
                # lane e's bit 32 moves to bit 32 + j: lanes stay apart
                gathered |= live << j
            lanes = struct.unpack(f"<{m}Q", (gathered >> 32).to_bytes(8 * m, "little"))
            coins = [c | lane << c0 for c, lane in zip(coins, lanes)]
        size, own = (k + 7) // 8, (1 << k) - 1
        if k <= 64:
            rep = int.from_bytes((b"\x01" + bytes(size - 1)) * graph.node_count, "little")
            windows = [(c & own) * rep for c in coins]
        else:
            windows = [int.from_bytes((c & own).to_bytes(size, "little") * graph.node_count,
                                      "little") for c in coins]
        return self._snapshots.store(None, (coins, windows))

    def _batch(self, graph: DirectedGraph, partial: PartialRealization) -> _Completions:
        codes = partial.codes
        hit = self._batches.lookup(graph, codes)
        if hit is not None:
            return hit
        # the lookup emptied the cache on another graph, so a held batch
        # shares this graph's snapshot
        held = next(iter(self._batches.items()), None)
        if held is None:
            own, w = (1 << self.samples) - 1, (self.samples + 7) // 8 * 8
            nodes = range(graph.node_count)
            stacked = [own << v * w for v in nodes]
        else:
            stacked, nodes = self._derived(graph, codes, *held)
        self._solve(graph, codes, stacked, nodes)
        batch = _Completions(stacked, self._zeros.lookup(graph, codes))
        return self._batches.store(codes, batch)

    def _derived(self, graph: DirectedGraph, codes: bytes, held_codes: bytes,
                 held: _Completions) -> tuple[list[int], list[int]]:
        """The held view of state `held_codes` with the nodes that state
        `codes` can change reset to their own bits, and those nodes.

        An edge changed in completion j when its liveness there differs
        between the two codes; it is live there when observed live, or
        unobserved with coin j set. A node's reach in completion j can
        change only if its held reach there holds the source of an edge
        changed in j. The k-bit changed masks of the edges, each shifted
        into its source's slot, stack the changed sources like the view,
        so each node is tested with one AND."""
        coins, _ = self._snapshot(graph)
        own, w = (1 << self.samples) - 1, (self.samples + 7) // 8 * 8
        live, unobserved = EdgeState.LIVE, EdgeState.UNOBSERVED
        edges = graph.edges

        def live_in(c: int, idx: int) -> int:
            return own if c == live else coins[idx] & own if c == unobserved else 0

        changed = 0
        for idx, (was, now) in enumerate(zip(held_codes, codes)):
            if was != now:
                changed |= (live_in(was, idx) ^ live_in(now, idx)) << edges[idx].source * w
        stacked = held.stacked.copy()
        hits = [v for v, reach in enumerate(stacked) if reach & changed]
        for v in hits:
            stacked[v] = own << v * w
        return stacked, hits

    def _solve(self, graph: DirectedGraph, codes: bytes, stacked: list[int], nodes) -> None:
        """Solve the view over `nodes` in place (`closure_masks`), every
        other node held. An edge e = (v, x) passes stacked[x] & W_e to v,
        where W_e holds bit j of every slot when e is live in completion
        j: mask -1 when observed live, as the world table's edges pass,
        and its coin bits repeated in every slot (`windows`) when
        unobserved. Blocked edges and edges with no live coin are
        skipped."""
        _, windows = self._snapshot(graph)
        live, unobserved = EdgeState.LIVE, EdgeState.UNOBSERVED
        edges, out_edges = graph.edges, graph.out_edges
        closure_masks(stacked, {
            v: [(edges[idx].target, -1 if c == live else windows[idx])
                for idx in out_edges[v]
                if (c := codes[idx]) == live or (c == unobserved and windows[idx])]
            for v in nodes})

    def _propagate(self, graph: DirectedGraph, seed_set,
                   partial: PartialRealization) -> tuple[list[int], frozenset[int]]:
        """Per-node completion counts and the zero set in one bit-parallel
        pass: a node's mask holds bit j when completion j reaches it, and
        bit `samples` when some edge path from the seeds avoids blocked
        and zero-probability edges."""
        coins, _ = self._snapshot(graph)
        k = self.samples
        full = (1 << k + 1) - 1
        live, unobserved = EdgeState.LIVE, EdgeState.UNOBSERVED
        codes, edges, out_edges = partial.codes, graph.edges, graph.out_edges
        reach = [0] * graph.node_count
        for v in seed_set:
            reach[v] = full
        stack = list(seed_set)
        while stack:
            u = stack.pop()
            mask = reach[u]
            for idx in out_edges[u]:
                c = codes[idx]
                if c == live:
                    passed = mask
                elif c == unobserved:
                    passed = mask & coins[idx]
                else:
                    continue
                v = edges[idx].target
                if passed & ~reach[v]:
                    reach[v] |= passed
                    stack.append(v)
        low = full >> 1
        zero = frozenset(v for v, mask in enumerate(reach) if not mask >> k)
        return [(mask & low).bit_count() for mask in reach], zero

    def activation(self, graph, seeds, partial):
        seed_set = _check_state(graph, seeds, partial)
        batch = self._batches.lookup(graph, partial.codes)
        # a state scanned for gains already holds a view (every alpha = 0
        # round, and a round right after a selection); its zero set is kept
        # on the batch for the next query. A zero-set node lies in no
        # completion, so its count is already 0 on both routes.
        if batch is not None:
            reached = closure_union(batch.stacked, seed_set)
            return ActivationEstimate(reached.bit_count() / self.samples,
                                      batch.zero_set(graph, partial, seed_set))
        counts, zero = self._propagate(graph, seed_set, partial)
        # the zero set of no seeds is every node: growing it is a walk
        # from scratch, so it is not kept
        if seed_set:
            self._zeros.lookup(graph, partial.codes)    # empties it on another graph
            self._zeros.store(partial.codes, (seed_set, zero))
        return ActivationEstimate(sum(counts) / self.samples, zero)

    def cascades_with(self, graph, seeds, partial, candidates):
        seed_set = _check_state(graph, seeds, partial, candidates)
        stacked = self._batch(graph, partial).stacked
        reached = closure_union(stacked, seed_set)
        return [(reached | stacked[c]).bit_count() / self.samples for c in candidates]

    def gains(self, graph, seeds, partial, candidates):
        seed_set = _check_state(graph, seeds, partial, candidates)
        stacked = self._batch(graph, partial).stacked
        reached = closure_union(stacked, seed_set)
        base = reached.bit_count()
        return [((reached | stacked[c]).bit_count() - base) / self.samples
                for c in candidates]

    def single_node_values(self, graph):
        # A completion holds only live edges and unobserved edges with
        # p > 0, so zero-set nodes already count 0 and need no filter.
        return [reach.bit_count() / self.samples
                for reach in self._batch(graph, empty_partial(graph)).stacked]


EPS_MODES = ("random", "adversarial-high", "adversarial-low")


class EpsilonEstimator(Estimator):
    """Wraps another backend and perturbs each cascade value it emits.

    Factors: "adversarial-high" pins 1+eps, "adversarial-low" pins 1-eps,
    "random" draws uniformly from [1-eps, 1+eps] per query, so output is
    deterministic given rng_seed and query order. A gain is the
    difference of two independently perturbed values and may be negative.
    """

    def __init__(self, inner: Estimator, epsilon: float, mode: str, rng_seed: int = 0):
        if not (0.0 <= epsilon < 1.0):
            raise ValueError("epsilon must lie in [0, 1)")
        if mode not in EPS_MODES:
            raise ValueError(f"unknown perturbation mode {mode!r}")
        self.inner = inner
        self.epsilon = epsilon
        self.mode = mode
        self.rng_seed = rng_seed
        self._rng = random.Random(derive_seed(rng_seed, "eps-stream"))

    def reseeded(self, salt):
        return EpsilonEstimator(self.inner.reseeded(salt), self.epsilon, self.mode,
                                derive_seed(self.rng_seed, salt))

    def rewound(self):
        return EpsilonEstimator(self.inner.rewound(), self.epsilon, self.mode, self.rng_seed)

    @property
    def tag(self):
        return f"eps({self.epsilon:g},{self.mode})+{self.inner.tag}"

    def _factor(self) -> float:
        if self.mode == "adversarial-high":
            return 1.0 + self.epsilon
        if self.mode == "adversarial-low":
            return 1.0 - self.epsilon
        return self._rng.uniform(1.0 - self.epsilon, 1.0 + self.epsilon)

    def activation(self, graph, seeds, partial):
        est = self.inner.activation(graph, seeds, partial)
        return replace(est, expected_cascade=est.expected_cascade * self._factor())

    def gains(self, graph, seeds, partial, candidates):
        # the inner f(S) is read once, after the batched query (which checks
        # the arguments), so a Monte Carlo inner answers it from the view
        # that query built; per candidate the with-candidate factor is
        # drawn before the base factor
        seed_set = frozenset(seeds)
        with_c = self.inner.cascades_with(graph, seed_set, partial, candidates)
        base = self.inner.activation(graph, seed_set, partial).expected_cascade
        return [v * self._factor() - base * self._factor() for v in with_c]
