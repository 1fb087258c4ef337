"""Directed-graph primitives for open multi-agent networks.

The network is "open": the node set changes over time as agents arrive
and depart, and the directed link set changes every step. A graph here
is always a snapshot covering one time step. Membership changes between
consecutive steps are summarized by three disjoint sets (remaining,
arriving, departing), which is what the per-node protocol logic keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .rng import IntegerDraws

NodeId = int


@dataclass(frozen=True, slots=True)
class DigraphInstance:
    """One directed-graph snapshot: a node set plus (tail, head) edges.

    Self-loops are implicit everywhere in the protocol (an agent can
    always keep mass), so they are never stored; constructing an
    instance with an explicit self-loop is a bug upstream.
    """

    nodes: frozenset[NodeId]
    edges: frozenset[tuple[NodeId, NodeId]]

    def __post_init__(self) -> None:
        for tail, head in self.edges:
            if tail == head:
                raise ValueError(f"self-loop ({tail},{head}) must not be stored")
            if tail not in self.nodes or head not in self.nodes:
                raise ValueError(f"edge ({tail},{head}) leaves the node set")

    def restricted_to(self, active: frozenset[NodeId]) -> "DigraphInstance":
        """Instance covering exactly ``active``: edges touching other nodes
        are dropped, and active nodes this instance omits become isolated."""
        return DigraphInstance(
            nodes=active,
            edges=frozenset((a, b) for a, b in self.edges if a in active and b in active),
        )


@dataclass(frozen=True, slots=True)
class MembershipSets:
    """Partition of nodes relevant at one step boundary.

    remaining: active now and still active next step
    arriving:  inactive now, active next step
    departing: active now, inactive next step

    The only legal message targets are out-neighbors in ``remaining``:
    mass sent to a departing or absent node would leave the system.
    """

    remaining: frozenset[NodeId]
    arriving: frozenset[NodeId]
    departing: frozenset[NodeId]


def membership_sets(
    active_now: frozenset[NodeId], active_next: frozenset[NodeId]
) -> MembershipSets:
    """Classify nodes by their activity across one step boundary."""
    return MembershipSets(
        remaining=active_now & active_next,
        arriving=active_next - active_now,
        departing=active_now - active_next,
    )


def out_adjacency(g: DigraphInstance) -> dict[NodeId, set[NodeId]]:
    """Heads of the edges leaving each node, with every node of ``g`` as a
    key. One pass over the edges, so a caller that needs many nodes'
    out-neighbors builds this once instead of scanning per node."""
    heads: dict[NodeId, set[NodeId]] = {v: set() for v in g.nodes}
    for a, b in g.edges:
        heads[a].add(b)
    return heads


def out_neighbors(g: DigraphInstance, v: NodeId) -> frozenset[NodeId]:
    """Heads of edges leaving ``v``. ``v`` itself is never included."""
    if v not in g.nodes:
        raise KeyError(f"node {v} not in instance")
    return frozenset(out_adjacency(g)[v])


def union_digraph(instances: Iterable[DigraphInstance]) -> DigraphInstance:
    """Union of edge sets over a family of instances on one node set."""
    instances = list(instances)
    if not instances:
        raise ValueError("empty instance family")
    nodes = instances[0].nodes
    for g in instances[1:]:
        if g.nodes != nodes:
            raise ValueError("instances span different node sets")
    edges: set[tuple[NodeId, NodeId]] = set()
    for g in instances:
        edges |= g.edges
    return DigraphInstance(nodes=nodes, edges=frozenset(edges))


def strongly_connected_components(g: DigraphInstance) -> list[frozenset[NodeId]]:
    """Tarjan's algorithm, iterative so deep graphs cannot blow the stack.

    Components come back in reverse topological order of the condensation;
    callers that only care about counts can ignore that.
    """
    adjacency = out_adjacency(g)
    index_of: dict[NodeId, int] = {}
    lowlink: dict[NodeId, int] = {}
    on_stack: set[NodeId] = set()
    stack: list[NodeId] = []
    components: list[frozenset[NodeId]] = []
    counter = 0

    for root in sorted(g.nodes):
        if root in index_of:
            continue
        # Each frame is (node, iterator over its successors).
        work: list[tuple[NodeId, Iterator[NodeId]]] = [(root, iter(adjacency[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, successors = work[-1]
            advanced = False
            for w in successors:
                if w not in index_of:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adjacency[w])))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index_of[v]:
                component: set[NodeId] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.add(w)
                    if w == v:
                        break
                components.append(frozenset(component))
    return components


def is_strongly_connected(g: DigraphInstance) -> bool:
    """True when every node reaches every other along directed paths."""
    if not g.nodes:
        raise ValueError("connectivity of the empty graph is undefined")
    if len(g.nodes) == 1:
        return True
    return len(strongly_connected_components(g)) == 1


def _tail_shuffle(m: int, take: int) -> bool:
    """Whether numpy 2.4.6's ``choice(m, take, replace=False)`` takes the
    partial tail shuffle rather than Floyd's algorithm."""
    return m > 10000 and take > m // 50


def _choice_bounds(m: int, take: int) -> list[int]:
    """The exclusive upper bounds of the draws (each from 0) that numpy
    2.4.6's ``choice(m, take, replace=False)`` makes, in order. None
    depends on an earlier draw."""
    if _tail_shuffle(m, take):
        return list(range(m, max(m - take, 1), -1))
    # Floyd's algorithm, then a shuffle of the ``take`` picks.
    return [*range(m - take + 1, m + 1), *range(take, 1, -1)]


def _choice(m: int, take: int, values: Iterator[int]) -> list[int]:
    """numpy 2.4.6's ``Generator.choice(m, take, replace=False)``, replayed
    on ``values`` drawn within ``_choice_bounds(m, take)``: it consumes
    one value per bound, and its picks are numpy's for those draws."""
    if _tail_shuffle(m, take):
        # Position -> value, for the positions the swaps moved.
        moved: dict[int, int] = {}
        for i in range(m - 1, max(m - take, 1) - 1, -1):
            j = next(values)
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return [moved.get(i, i) for i in range(m - take, m)]
    picks: list[int] = []
    seen: set[int] = set()
    for j in range(m - take, m):
        value = next(values)
        pick = j if value in seen else value
        seen.add(pick)
        picks.append(pick)
    for i in range(take - 1, 0, -1):
        j = next(values)
        picks[i], picks[j] = picks[j], picks[i]
    return picks


def random_out_degree_instance(
    nodes: Iterable[NodeId], min_out_degree: int, rng: IntegerDraws
) -> DigraphInstance:
    """Draw an instance where every node gets ``min_out_degree`` distinct
    out-neighbors chosen uniformly without replacement (capped at n-1).

    Node by node in sorted order, the picks and the generator state
    afterwards are those of ``rng.choice(n - 1, size=take, replace=False)``
    over the other nodes, with ``take`` the capped degree. Every node's
    draws have the same bounds, so all of them come from one ``integers``
    call.
    """
    ordered = sorted(set(nodes))
    if not ordered:
        raise ValueError("need at least one node")
    m = len(ordered) - 1
    take = min(min_out_degree, m)
    values = iter(rng.integers(0, _choice_bounds(m, take) * len(ordered)))
    # Index i draws from the n-1 nodes other than v, in sorted order:
    # those before v keep their index, those after it shift by one.
    edges = {
        (v, ordered[i if i < pos else i + 1])
        for pos, v in enumerate(ordered)
        for i in _choice(m, take, values)
    }
    return DigraphInstance(nodes=frozenset(ordered), edges=frozenset(edges))


def directed_cycle(nodes: Iterable[NodeId]) -> DigraphInstance:
    """Single directed ring over the sorted node sequence."""
    ordered = sorted(set(nodes))
    if len(ordered) < 2:
        return DigraphInstance(nodes=frozenset(ordered), edges=frozenset())
    edges = {
        (ordered[i], ordered[(i + 1) % len(ordered)]) for i in range(len(ordered))
    }
    return DigraphInstance(nodes=frozenset(ordered), edges=frozenset(edges))


def generate_instance_family(
    nodes: Iterable[NodeId],
    count: int,
    min_out_degree: int,
    rng: IntegerDraws,
    max_attempts: int = 64,
) -> list[DigraphInstance]:
    """Draw ``count`` random instances whose union is strongly connected.

    Redraws the whole family up to ``max_attempts`` times; if every
    attempt fails (tiny degree on a large node set can do that) the last
    family is patched by overlaying a directed ring on its final member,
    which makes the union strongly connected by construction.
    """
    ordered = sorted(set(nodes))
    if count < 1:
        raise ValueError("family needs at least one instance")
    if max_attempts < 1:
        raise ValueError("need at least one attempt")
    family: list[DigraphInstance] = []
    for _ in range(max_attempts):
        family = [
            random_out_degree_instance(ordered, min_out_degree, rng)
            for _ in range(count)
        ]
        if is_strongly_connected(union_digraph(family)):
            return family
    ring = directed_cycle(ordered)
    family[-1] = DigraphInstance(
        nodes=family[-1].nodes, edges=family[-1].edges | ring.edges
    )
    return family
