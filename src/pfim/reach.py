"""Bitmask reachability primitives shared by estimators and oracles.

Node sets are Python ints used as bitmasks (bit v = node v), which keeps
set algebra to single machine ops for n <= 64 and stays correct for
larger graphs via big ints. `reachable_mask` takes adjacency as a plain
list of target lists; `closure_masks` takes a dict of (target, mask)
pairs per node and solves the masks of all its nodes at once.
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


def closure_masks(view: list[int], out: dict) -> None:
    """Solve reachability masks in place over the nodes of `out`, every
    other node held: the least fixpoint above the given values of
    view[v] |= view[w] & mask for each (w, mask) in out[v].

    With view[v] = 1 << v and mask -1 on every edge, view[v] becomes the
    mask of nodes v reaches. A mask may restrict an edge to some bits,
    such as the bits of the completions where it is live. The nodes
    are visited in DFS postorder, targets first, so one pass settles
    every node that reaches no cycle; passes repeat until no int moves.
    """
    unseen = bytearray(len(view))
    for v in out:
        unseen[v] = 1
    order = []
    for root in out:
        if not unseen[root]:
            continue
        unseen[root] = 0
        work = [(root, iter(out[root]))]
        while work:
            v, targets = work[-1]
            for w, _ in targets:
                if unseen[w]:
                    unseen[w] = 0
                    work.append((w, iter(out[w])))
                    break
            else:
                work.pop()
                order.append((v, out[v]))
    moved = True
    while moved:
        moved = False
        for v, targets in order:
            reach = old = view[v]
            for w, mask in targets:
                reach |= view[w] & mask
            if reach != old:
                view[v] = reach
                moved = True
