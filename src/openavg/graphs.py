"""Directed-graph primitives for open multi-agent networks.

The network is "open": the node set changes over time as agents arrive
and depart, and the directed link set changes every step. A graph here
is always a snapshot covering one time step, stored as what the protocol
reads of it: each node's out-neighbors, in ascending order. Membership
changes between consecutive steps are summarized by three disjoint sets
(remaining, arriving, departing), which is what the per-node protocol
logic keys on.

A random family (``InstanceFamily``) draws every member's values up
front, keeping each stream position, but builds a member only when it is
first read. Its union is checked member by member, so a family is
accepted on its shortest strongly connected prefix.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .rng import IntegerDraws

NodeId = int

# Family draws tried before the ring fallback of generate_instance_family.
FAMILY_ATTEMPTS = 64


@dataclass(frozen=True, slots=True)
class DigraphInstance:
    """One directed-graph snapshot: a node set plus each node's out-neighbors.

    ``heads[v]`` is the ascending tuple of the heads of the edges leaving
    ``v``. A node with no out-edge has no key, so ``==`` is graph equality
    and an instance costs nothing per isolated node. Self-loops are
    implicit everywhere in the protocol (an agent can always keep mass),
    so they are never stored. Outside input comes in through
    ``from_edges``, the one place that checks edges; the generators below
    build valid heads directly.
    """

    nodes: frozenset[NodeId]
    heads: dict[NodeId, tuple[NodeId, ...]]

    @classmethod
    def from_edges(
        cls, nodes: frozenset[NodeId], edges: Iterable[tuple[NodeId, NodeId]]
    ) -> "DigraphInstance":
        """The instance on ``nodes`` (kept as given) with these (tail, head)
        edges. A self-loop or an edge leaving the node set is a ValueError."""
        heads: dict[NodeId, set[NodeId]] = {}
        for tail, head in edges:
            if tail == head:
                raise ValueError(f"self-loop ({tail},{head}) must not be stored")
            if tail not in nodes or head not in nodes:
                raise ValueError(f"edge ({tail},{head}) leaves the node set")
            heads.setdefault(tail, set()).add(head)
        return cls(nodes, {v: tuple(sorted(hs)) for v, hs in heads.items()})

    def restricted_to(self, active: frozenset[NodeId]) -> "DigraphInstance":
        """Instance covering exactly ``active``: edges touching other nodes
        are dropped, and active nodes this instance omits become isolated."""
        kept = {v: tuple(h for h in hs if h in active)
                for v, hs in self.heads.items() if v in active}
        return DigraphInstance(active, {v: hs for v, hs in kept.items() if hs})


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


def out_neighbors(g: DigraphInstance, v: NodeId) -> frozenset[NodeId]:
    """Heads of edges leaving ``v``. ``v`` itself is never included."""
    if v not in g.nodes:
        raise KeyError(f"node {v} not in instance")
    return frozenset(g.heads.get(v, ()))


def union_digraph(instances: Iterable[DigraphInstance]) -> DigraphInstance:
    """Union of edge sets over a family of instances on one node set."""
    instances = list(instances)
    if not instances:
        raise ValueError("empty instance family")
    nodes = instances[0].nodes
    merged: dict[NodeId, list[NodeId]] = {}
    for g in instances:
        if g.nodes != nodes:
            raise ValueError("instances span different node sets")
        for v, hs in g.heads.items():
            merged.setdefault(v, []).extend(hs)
    return DigraphInstance(nodes, {v: tuple(sorted(set(hs))) for v, hs in merged.items()})


def strongly_connected_components(g: DigraphInstance) -> list[frozenset[NodeId]]:
    """Tarjan's algorithm, iterative so deep graphs cannot blow the stack.

    Components come back in reverse topological order of the condensation;
    callers that only care about counts can ignore that.
    """
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
        work: list[tuple[NodeId, Iterator[NodeId]]] = [(root, iter(g.heads.get(root, ())))]
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
                    work.append((w, iter(g.heads.get(w, ()))))
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


def _choice_bounds(m: int, take: int) -> list[int]:
    """The exclusive upper bounds of the draws (each from 0) that numpy
    2.4.6's ``choice(m, take, replace=False)`` makes for m <= 10000, in
    order: Floyd's algorithm, then a shuffle of the ``take`` picks. None
    depends on an earlier draw. A larger m is a ValueError, since numpy
    may shuffle a tail there instead; MAX_N_TOTAL keeps every m below it."""
    if m > 10000:
        raise ValueError(f"choice over {m} items: only m <= 10000 is replayed")
    return [*range(m - take + 1, m + 1), *range(take, 1, -1)]


def _choice(m: int, take: int, values: Iterator[int]) -> list[int]:
    """The set numpy 2.4.6's ``Generator.choice(m, take, replace=False)``
    picks, ascending, on ``values`` drawn within ``_choice_bounds(m, take)``:
    Floyd's algorithm fixes the set, and the shuffle's ``take - 1`` values
    after it only reorder it, so they are consumed unread."""
    picks: set[int] = set()
    for j in range(m - take, m):
        value = next(values)
        picks.add(j if value in picks else value)
    for _ in range(take - 1):
        next(values)
    return sorted(picks)


def _instance_draws(
    nodes: Iterable[NodeId], min_out_degree: int
) -> tuple[list[NodeId], int, list[int]]:
    """The ascending nodes of a random instance, each node's degree capped
    at n-1, and the bounds of all the instance's draws, node by node."""
    ordered = sorted(set(nodes))
    if not ordered:
        raise ValueError("need at least one node")
    take = min(min_out_degree, len(ordered) - 1)
    return ordered, take, _choice_bounds(len(ordered) - 1, take) * len(ordered)


def _build_instance(
    nodes: frozenset[NodeId], ordered: list[NodeId], take: int, drawn: Iterable[int]
) -> DigraphInstance:
    """The instance on ``nodes`` (``ordered`` ascending) whose nodes, in
    order, pick ``take`` heads each by replaying ``_choice`` on ``drawn``,
    the values drawn within the bounds ``_instance_draws`` gives."""
    if take < 1:  # no node has a head, and no empty tuple is stored
        return DigraphInstance(nodes, {})
    m = len(ordered) - 1
    values = iter(drawn)
    # Index i draws from the n-1 nodes other than v, in sorted order:
    # those before v keep their index, those after it shift by one.
    heads = {}
    for pos, v in enumerate(ordered):
        picks = _choice(m, take, values)
        heads[v] = tuple([ordered[i if i < pos else i + 1] for i in picks])
    return DigraphInstance(nodes, heads)


def random_out_degree_instance(
    nodes: Iterable[NodeId], min_out_degree: int, rng: IntegerDraws
) -> DigraphInstance:
    """Draw an instance where every node gets ``min_out_degree`` distinct
    out-neighbors chosen uniformly without replacement (capped at n-1).

    Node by node in sorted order, the set of picks and the generator
    state afterwards are those of ``rng.choice(n - 1, size=take,
    replace=False)`` over the other nodes, with ``take`` the capped
    degree. Every node's draws have the same bounds, so all of them come
    from one ``integers`` call.
    """
    ordered, take, bounds = _instance_draws(nodes, min_out_degree)
    return _build_instance(frozenset(ordered), ordered, take, rng.integers(0, bounds))


def directed_cycle(nodes: Iterable[NodeId]) -> DigraphInstance:
    """Single directed ring over the sorted node sequence."""
    ordered = sorted(set(nodes))
    heads = {v: (w,) for v, w in zip(ordered, ordered[1:] + ordered[:1]) if v != w}
    return DigraphInstance(frozenset(ordered), heads)


class InstanceFamily(Sequence[DigraphInstance]):
    """The members of a random family, each built on its first read.

    A member is held as the values drawn for it until it is first read;
    then it is built, exactly as ``random_out_degree_instance`` builds
    an instance from the same values, and the built instance replaces
    the values.
    """

    __slots__ = ("_nodes", "_ordered", "_take", "_members")

    def __init__(
        self, ordered: list[NodeId], take: int, drawn: list[Sequence[int]]
    ) -> None:
        self._nodes = frozenset(ordered)
        self._ordered = ordered
        self._take = take
        self._members: list[DigraphInstance | Sequence[int]] = drawn

    def __len__(self) -> int:
        return len(self._members)

    def __getitem__(self, index: int) -> DigraphInstance:
        member = self._members[index]
        if not isinstance(member, DigraphInstance):
            member = _build_instance(self._nodes, self._ordered, self._take, member)
            self._members[index] = member
        return member


def generate_instance_family(
    nodes: Iterable[NodeId],
    count: int,
    min_out_degree: int,
    rng: IntegerDraws,
) -> InstanceFamily:
    """Draw ``count`` random instances whose union is strongly connected.

    An attempt draws every member's values, in order, one ``integers``
    call per member, as ``random_out_degree_instance`` would. Members are
    then built one at a time into a running union, and the attempt is
    accepted at the first prefix whose union is strongly connected. That
    decides exactly as checking the whole family would, since adding
    edges keeps a digraph strongly connected; members past the prefix
    are built when first read. A failed attempt is redrawn, up to
    ``FAMILY_ATTEMPTS`` times; if every attempt fails (tiny degree on a
    large node set can do that) the last family is patched by overlaying
    a directed ring on its final member, which makes the union strongly
    connected by construction.
    """
    if count < 1:
        raise ValueError("family needs at least one instance")
    ordered, take, bounds = _instance_draws(nodes, min_out_degree)
    for _ in range(FAMILY_ATTEMPTS):
        family = InstanceFamily(
            ordered, take, [rng.integers(0, bounds) for _ in range(count)]
        )
        # The union of the members built so far. Tarjan only walks the
        # heads, so they stay unsorted and may repeat.
        union = DigraphInstance(family._nodes, {})
        for member in family:
            for v, hs in member.heads.items():
                union.heads[v] = union.heads.get(v, ()) + hs
            if is_strongly_connected(union):
                return family
    family._members[-1] = union_digraph([family[-1], directed_cycle(ordered)])
    return family
