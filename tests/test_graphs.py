"""Graph primitives: construction rules, membership algebra, connectivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rng import pcg_state, reference

from openavg import graphs, rng
from openavg.graphs import (
    FAMILY_ATTEMPTS,
    DigraphInstance,
    _choice,
    _choice_bounds,
    directed_cycle,
    generate_instance_family,
    is_strongly_connected,
    membership_sets,
    out_neighbors,
    random_out_degree_instance,
    strongly_connected_components,
    union_digraph,
)
from openavg.scenario import MAX_N_TOTAL


def g(nodes, edges):
    return DigraphInstance.from_edges(frozenset(nodes), edges)


class TestDigraphInstance:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            g({0, 1}, {(0, 0)})

    def test_rejects_dangling_edge(self):
        with pytest.raises(ValueError):
            g({0, 1}, {(0, 2)})

    def test_restriction_drops_outside_edges(self):
        full = g({0, 1, 2}, {(0, 1), (1, 2), (2, 0)})
        sub = full.restricted_to(frozenset({0, 1}))
        assert sub.nodes == {0, 1}
        assert sub.heads == {0: (1,)}

    def test_restriction_isolates_active_nodes_the_instance_omits(self):
        full = g({0, 1}, {(0, 1)})
        sub = full.restricted_to(frozenset({5}))
        assert sub.nodes == {5}
        assert sub.heads == {}
        assert out_neighbors(sub, 5) == set()


class TestMembership:
    def test_partition(self):
        m = membership_sets(frozenset({1, 2, 3}), frozenset({2, 3, 4}))
        assert m.remaining == {2, 3}
        assert m.arriving == {4}
        assert m.departing == {1}

    def test_no_change(self):
        m = membership_sets(frozenset({1, 2}), frozenset({1, 2}))
        assert m.remaining == {1, 2}
        assert not m.arriving and not m.departing

    def test_full_turnover(self):
        m = membership_sets(frozenset({1}), frozenset({2}))
        assert not m.remaining
        assert m.arriving == {2}
        assert m.departing == {1}


class TestNeighbors:
    def test_out_neighbors(self):
        inst = g({0, 1, 2}, {(0, 1), (0, 2), (1, 0)})
        assert out_neighbors(inst, 0) == {1, 2}
        assert out_neighbors(inst, 1) == {0}
        assert out_neighbors(inst, 2) == set()

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            out_neighbors(g({0}, set()), 3)

    def test_remaining_filter(self):
        inst = g({0, 1, 2, 3}, {(0, 1), (0, 2), (0, 3)})
        m = membership_sets(frozenset({0, 1, 2, 3}), frozenset({0, 1}))
        assert out_neighbors(inst, 0) & m.remaining == {1}


class TestUnion:
    def test_merges_edges(self):
        a = g({0, 1, 2}, {(0, 1)})
        b = g({0, 1, 2}, {(1, 2)})
        assert union_digraph([a, b]).heads == {0: (1,), 1: (2,)}

    def test_rejects_mixed_node_sets(self):
        with pytest.raises(ValueError):
            union_digraph([g({0, 1}, set()), g({0, 2}, set())])

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError):
            union_digraph([])


def _reachable_from(inst: DigraphInstance, start: int) -> set[int]:
    """Plain BFS, the reference for connectivity checks."""
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for b in inst.heads.get(v, ()):
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def brute_force_strongly_connected(inst: DigraphInstance) -> bool:
    return all(_reachable_from(inst, v) == inst.nodes for v in inst.nodes)


class TestConnectivity:
    def test_single_node(self):
        assert is_strongly_connected(g({7}, set()))

    def test_empty_graph_undefined(self):
        with pytest.raises(ValueError):
            is_strongly_connected(g(set(), set()))

    def test_two_cycle(self):
        assert is_strongly_connected(g({0, 1}, {(0, 1), (1, 0)}))

    def test_one_way_pair(self):
        assert not is_strongly_connected(g({0, 1}, {(0, 1)}))

    def test_chain_components(self):
        inst = g({0, 1, 2}, {(0, 1), (1, 2)})
        comps = strongly_connected_components(inst)
        assert sorted(map(sorted, comps)) == [[0], [1], [2]]

    def test_ring_is_one_component(self):
        ring = directed_cycle(range(5))
        comps = strongly_connected_components(ring)
        assert comps == [frozenset(range(5))]

    def test_two_rings_bridged_one_way(self):
        edges = {(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)}
        comps = strongly_connected_components(g({0, 1, 2, 3}, edges))
        assert sorted(map(sorted, comps)) == [[0, 1], [2, 3]]

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(20240817)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            density = float(rng.random())
            nodes = frozenset(range(n))
            edges = frozenset(
                (a, b)
                for a in range(n)
                for b in range(n)
                if a != b and rng.random() < density
            )
            inst = DigraphInstance.from_edges(nodes, edges)
            assert is_strongly_connected(inst) == brute_force_strongly_connected(inst)

    def test_deep_path_does_not_recurse(self):
        n = 3000
        edges = {(i, i + 1) for i in range(n - 1)} | {(n - 1, 0)}
        assert is_strongly_connected(g(range(n), edges))


class TestGenerators:
    def test_out_degree_floor(self):
        rng = np.random.default_rng(5)
        inst = random_out_degree_instance(range(10), 3, rng)
        for v in range(10):
            assert len(out_neighbors(inst, v)) >= 3

    def test_degree_capped_at_n_minus_one(self):
        rng = np.random.default_rng(5)
        inst = random_out_degree_instance(range(3), 10, rng)
        for v in range(3):
            assert out_neighbors(inst, v) == frozenset(range(3)) - {v}

    def test_single_node_instance(self):
        inst = random_out_degree_instance([4], 2, np.random.default_rng(0))
        assert inst.nodes == {4} and not inst.heads

    def test_same_seed_same_instance(self):
        a = random_out_degree_instance(range(8), 2, np.random.default_rng(123))
        b = random_out_degree_instance(range(8), 2, np.random.default_rng(123))
        assert a == b

    def test_directed_cycle_shape(self):
        ring = directed_cycle([3, 1, 2])
        assert ring.heads == {1: (2,), 2: (3,), 3: (1,)}
        assert directed_cycle([9]).heads == {}

    def test_family_union_strongly_connected(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            fam = generate_instance_family(range(12), count=4, min_out_degree=1, rng=rng)
            assert len(fam) == 4
            assert is_strongly_connected(union_digraph(fam))

    def test_family_ring_fallback(self):
        # With out-degree 1 on 40 nodes, none of the 64 attempts of
        # default_rng(2) yields a strongly connected union; the fallback
        # overlays the ring 0 -> 1 -> ... -> 39 -> 0 on the last attempt's
        # last member and keeps its others.
        rng = np.random.default_rng(2)
        fam = generate_instance_family(range(40), count=2, min_out_degree=1, rng=rng)
        rng = np.random.default_rng(2)
        for _ in range(64):
            drawn = [random_out_degree_instance(range(40), 1, rng) for _ in range(2)]
            assert not is_strongly_connected(union_digraph(drawn))
        heads = {v: tuple(sorted({*drawn[1].heads.get(v, ()), (v + 1) % 40})) for v in range(40)}
        assert list(fam) == [drawn[0], DigraphInstance(frozenset(range(40)), heads)]
        assert is_strongly_connected(union_digraph(fam))

    def test_family_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_instance_family(range(3), count=0, min_out_degree=1,
                                     rng=np.random.default_rng(0))


def eager_family(nodes, count, min_out_degree, rng):
    """Reference: each attempt builds all ``count`` members and checks the
    whole family's union; returns the family and whether the ring
    fallback fired."""
    family = []
    for _ in range(FAMILY_ATTEMPTS):
        family = [
            random_out_degree_instance(nodes, min_out_degree, rng)
            for _ in range(count)
        ]
        if is_strongly_connected(union_digraph(family)):
            return family, False
    family[-1] = union_digraph([family[-1], directed_cycle(nodes)])
    return family, True


def shortest_connected_prefix(family):
    return next(
        k for k in range(1, len(family) + 1)
        if is_strongly_connected(union_digraph(family[:k]))
    )


class TestLazyFamily:
    """The lazily built family against the eager reference: same members,
    same length, same generator state afterwards."""

    @staticmethod
    def assert_matches_reference(n, count, d, seed):
        ref_rng, lazy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected, fell_back = eager_family(range(n), count, d, ref_rng)
        family = generate_instance_family(range(n), count, d, lazy_rng)
        assert lazy_rng.bit_generator.state == ref_rng.bit_generator.state
        assert len(family) == len(expected) == count
        for i in range(count):
            assert family[i] == expected[i]
        # Building the members draws nothing.
        assert lazy_rng.bit_generator.state == ref_rng.bit_generator.state
        return fell_back

    @pytest.mark.parametrize("count", [1, 4, 20])
    @pytest.mark.parametrize("degree", [1, 2, "n"])
    @pytest.mark.parametrize("n", [1, 2, 3, 12, 40])
    def test_matches_eager_reference(self, n, degree, count):
        d = n if degree == "n" else degree
        for seed in range(20):
            self.assert_matches_reference(n, count, d, seed)

    def test_ring_fallback_matches_eager_reference(self):
        assert self.assert_matches_reference(40, 2, 1, seed=2)

    def test_reading_a_member_builds_only_the_prefix_and_it(self, monkeypatch):
        # This family is accepted on its first attempt, short of its end.
        expected, _ = eager_family(range(40), 20, 2, np.random.default_rng(0))
        prefix = shortest_connected_prefix(expected)
        assert prefix < 19
        built = []
        build = graphs._build_instance

        def counting_build(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(graphs, "_build_instance", counting_build)
        family = generate_instance_family(range(40), 20, 2, np.random.default_rng(0))
        assert len(built) == prefix
        assert family[19] == expected[19]
        assert len(built) == prefix + 1
        assert family[19] == expected[19] and family[0] == expected[0]
        assert len(built) == prefix + 1
        assert list(family) == expected
        assert len(built) == 20


def others_list_instance(nodes, min_out_degree, rng):
    """Reference: the instance draw that lists every node's other nodes."""
    ordered = sorted(set(nodes))
    edges = set()
    for v in ordered:
        others = [u for u in ordered if u != v]
        take = min(min_out_degree, len(others))
        if take <= 0:
            continue
        picks = rng.choice(len(others), size=take, replace=False)
        for i in picks:
            edges.add((v, others[int(i)]))
    return g(ordered, edges)


class TestIndexedDraws:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40])
    @pytest.mark.parametrize("degree", [1, 2, 3, "n"])
    def test_instance_matches_others_list_draw(self, n, degree):
        d = n if degree == "n" else degree
        nodes = [3 * i + 1 for i in range(n)]  # ids with gaps, passed unsorted
        for seed in range(5):
            ref_rng = np.random.default_rng(seed)
            new_rng = np.random.default_rng(seed)
            expected = others_list_instance(nodes, d, ref_rng)
            got = random_out_degree_instance(reversed(nodes), d, new_rng)
            assert got == expected
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40, 800])
    def test_stream_instance_equals_numpy_instance(self, n):
        nodes = [3 * i + 1 for i in range(n)]
        for degree in (1, 2, 3, n):
            stream, ref_rng = rng.stream(n, "x", degree), reference(n, "x", degree)
            expected = others_list_instance(nodes, degree, ref_rng)
            assert random_out_degree_instance(nodes, degree, stream) == expected
            # One more draw seeds a stream that drew nothing (n = 1).
            assert stream.integers(0, 2**40) == ref_rng.integers(0, 2**40)
            assert pcg_state(stream) == ref_rng.bit_generator.state

    def test_drawn_heads_are_canonical(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 30):
            inst = random_out_degree_instance(range(n), 3, rng)
            # Every node of a drawn instance has min(3, n - 1) heads, so a
            # lone node stores none and no key.
            assert inst.heads.keys() == (inst.nodes if n > 1 else set())
            for v, hs in inst.heads.items():
                assert list(hs) == sorted(set(hs)) and len(hs) == min(3, n - 1)
                assert v not in hs
                assert out_neighbors(inst, v) == set(hs)

    def test_isolated_nodes_get_no_key(self):
        inst = g([0, 1, 2], [(0, 1)])
        assert inst.heads == {0: (1,)}
        assert inst == g([0, 1, 2], [(0, 1), (0, 1)])
        assert out_neighbors(inst, 2) == set()


def edges_on(nodes):
    """Edge sets on ``nodes``, isolated nodes likely."""
    pairs = [(a, b) for a in sorted(nodes) for b in sorted(nodes) if a != b]
    return st.sets(st.sampled_from(pairs)) if pairs else st.just(set())


class TestEdgeSetDefinitions:
    """The stored heads against the edge-set definitions they replace."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    # Ids up to 40 make Python's set order differ from sorted order.
    @given(nodes=st.frozensets(st.integers(0, 40), min_size=1, max_size=8), data=st.data())
    def test_operations_match_edge_sets(self, nodes, data):
        edges = frozenset(data.draw(edges_on(nodes)))
        inst = g(nodes, edges)
        assert inst.nodes is nodes
        # Canonical: a key only for a node with out-edges, heads ascending.
        assert inst.heads == {
            a: tuple(sorted(b for t, b in edges if t == a)) for a, _ in edges
        }
        for v in nodes:
            assert out_neighbors(inst, v) == {b for a, b in edges if a == v}

        # Active sets keep some nodes and add ids the instance omits.
        active = frozenset(data.draw(st.sets(st.sampled_from(sorted(nodes))))
                           | data.draw(st.sets(st.integers(41, 43))))
        sub = inst.restricted_to(active)
        assert sub.nodes is active
        assert sub == g(active, {(a, b) for a, b in edges if a in active and b in active})

        other = data.draw(edges_on(nodes))
        assert union_digraph([inst, g(nodes, other)]) == g(nodes, edges | other)
        assert union_digraph([inst]) == inst

        assert is_strongly_connected(inst) == brute_force_strongly_connected(inst)


class TestChoiceReplay:
    """One node's draws: ``_choice`` on one batched ``rng.Stream`` draw
    over ``_choice_bounds`` against the set numpy's ``Generator.choice(m,
    take, replace=False)`` picks on the generator the stream replays,
    ascending; the order its shuffle puts them in is not kept. Only
    Floyd's algorithm is replayed: above m = 10000 numpy may shuffle a
    tail instead, so ``_choice_bounds`` refuses those sizes; MAX_N_TOTAL
    keeps every family's m at 9999 or below."""

    @pytest.mark.parametrize("m", [1, 2, 3, 799, 10000, 10001, 10050, 20000])
    def test_replay_equals_choice(self, m):
        takes = sorted({t for t in (1, 2, 3, m // 50, m // 50 + 1, m) if 1 <= t <= m})
        if m > 10000:
            # A node of a family over n nodes draws from m = n - 1 others.
            assert MAX_N_TOTAL - 1 <= 10000
            # take 1 is Floyd's algorithm in numpy, m // 50 + 1 the tail shuffle
            for take in takes:
                with pytest.raises(ValueError, match=f"choice over {m} items"):
                    _choice_bounds(m, take)
            return
        for take in takes:
            for seed in range(4):
                stream, ref_rng = rng.stream(seed, "x"), reference(seed, "x")
                for _ in range(3):
                    expected = sorted(ref_rng.choice(m, take, replace=False).tolist())
                    values = iter(stream.integers(0, _choice_bounds(m, take)))
                    assert _choice(m, take, values) == expected, (take, seed)
                    assert next(values, None) is None  # one value per bound
                # One more draw seeds a stream that drew nothing (m = 1).
                assert stream.integers(0, 2**40) == ref_rng.integers(0, 2**40)
                assert pcg_state(stream) == ref_rng.bit_generator.state
