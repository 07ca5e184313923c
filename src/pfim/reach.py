"""Bitmask reachability primitives shared by estimators and oracles.

Node sets are Python ints used as bitmasks (bit v = node v), which keeps
set algebra to single machine ops for n <= 64 and stays correct for
larger graphs via big ints. Adjacency is a plain list of target lists.
"""


def node_mask(nodes) -> int:
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def mask_nodes(mask: int):
    """Yield node ids set in the mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure_union(closures: list[int], nodes) -> int:
    """Nodes the given nodes reach: the union of their closure masks
    (`closure_masks`). `nodes` is iterated once."""
    reached = 0
    for v in nodes:
        reached |= closures[v]
    return reached


def reachable_mask(adjacency: list, start_mask: int) -> int:
    """All nodes reachable from the start set, start included."""
    seen = start_mask
    stack = list(mask_nodes(start_mask))
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            bit = 1 << v
            if not seen & bit:
                seen |= bit
                stack.append(v)
    return seen


def closure_masks(n: int, adjacency: list) -> list[int]:
    """Per-node reachability masks (self included) for the whole graph.

    One iterative Tarjan pass: when a strongly connected component is
    emitted, every edge leaving it leads to a component emitted earlier,
    so the component's mask is its members plus their targets' final
    masks. Cost is one pass over nodes plus edges instead of a BFS per
    node. Nodes without out-edges are finished without a stack frame.
    """
    index = [0] * n      # visit order from 1; 0 = unvisited
    low = [0] * n
    masks = [0] * n      # nonzero once the node's component is emitted
    tarjan_stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        if not adjacency[root]:
            masks[root] = 1 << root
            continue
        tarjan_stack.append(root)
        work = [(root, iter(adjacency[root]))]
        while work:
            node, edge_iter = work[-1]
            for t in edge_iter:
                if not index[t]:
                    counter += 1
                    index[t] = low[t] = counter
                    if adjacency[t]:
                        tarjan_stack.append(t)
                        work.append((t, iter(adjacency[t])))
                        break
                    masks[t] = 1 << t
                elif not masks[t] and index[t] < low[node]:
                    # t is visited but not emitted, so it is on the stack
                    low[node] = index[t]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    members = []
                    m = 0
                    while True:
                        w = tarjan_stack.pop()
                        members.append(w)
                        m |= 1 << w
                        if w == node:
                            break
                    for w in members:
                        for t in adjacency[w]:
                            m |= masks[t]
                    for w in members:
                        masks[w] = m
    return masks
