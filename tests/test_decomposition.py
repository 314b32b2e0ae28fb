import random

import pytest

import helpers
from paspc import cli, pipeline
from paspc.decomposition import (
    PrimalGraph,
    TreeDecomposition,
    assign_slots,
    decompose,
    make_nice,
    primal_graph,
    validate_td,
)
from paspc.formats import read_td, write_td
from paspc.program import Program
from reference import add_edge, check_nice, pairwise_primal_graph, reference_decompose, to_tree_decomposition


def random_graph(rng, n, density=0.3):
    g = PrimalGraph(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                add_edge(g, i, j)
    return g


class TestPrimalGraph:
    def test_example1_edges(self, example1):
        g = primal_graph(example1)
        name = example1.atom_id
        expected = {
            frozenset((name("a"), name("b"))),
            frozenset((name("c"), name("e"))),
            frozenset((name("b"), name("d"))),
            frozenset((name("b"), name("e"))),
            frozenset((name("d"), name("e"))),
        }
        assert {frozenset(e) for e in g.edges()} == expected

    def test_empty_program(self):
        g = primal_graph(Program.from_specs([]))
        assert g.n == 0 and g.edges() == []

    def test_rule_atoms_form_clique(self):
        p = Program.from_specs([(("a", "b"), ("c",), ())])
        g = primal_graph(p)
        assert len(g.edges()) == 3

    def test_matches_pairwise_construction(self):
        rng = random.Random(12)
        programs = [p for _, p, _ in helpers.projection_fuzz()] + list(helpers.overlap_fuzz())
        programs += [helpers.random_mixed(rng, rng.randint(1, 12), rng.randint(1, 10), 3, 6) for _ in range(60)]
        for p in programs:
            g, want = primal_graph(p), pairwise_primal_graph(p)
            assert (g.n, g.adj) == (want.n, want.adj)


class TestDecompose:
    def test_example1_width_two_both_heuristics(self, example1):
        g = primal_graph(example1)
        for h in ("min-fill", "min-degree"):
            td = decompose(g, h, 0)
            assert validate_td(g, td) == []
            assert td.width <= 2

    def test_empty_graph(self):
        td = decompose(PrimalGraph(0))
        assert td.bags == [frozenset()]

    def test_complete_graph_width(self):
        g = PrimalGraph(4)
        for i in range(4):
            for j in range(i + 1, 4):
                add_edge(g, i, j)
        assert decompose(g, "min-fill", 0).width == 3

    def test_deterministic_per_seed(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 10))
            for h in ("min-fill", "min-degree"):
                for seed in (0, 7):
                    t1 = decompose(g, h, seed)
                    t2 = decompose(g, h, seed)
                    assert t1.bags == t2.bags and t1.edges == t2.edges

    def test_fuzz_validity(self):
        rng = random.Random(42)
        for seed in range(200):
            g = random_graph(rng, rng.randint(0, 12), rng.uniform(0.1, 0.6))
            h = "min-fill" if seed % 2 else "min-degree"
            td = decompose(g, h, seed % 5)
            assert validate_td(g, td) == []

    def test_unknown_heuristic(self):
        with pytest.raises(ValueError):
            decompose(PrimalGraph(1), "magic")

    def test_matches_reference(self):
        # the same bags and edges as the heap / live-vertex scan / forward
        # superset scan formulation, so a seed picks the same decomposition
        rng = random.Random(2024)
        cases = []
        for k in range(512):
            g = random_graph(rng, rng.randint(0, 40), rng.uniform(0.03, 0.4))
            cases.append((g, ("min-fill", "min-degree")[k % 2], (0, 1, 7, 99)[k // 2 % 4]))
        chain = PrimalGraph(400)  # x, y, p, q per block; x chained block to block
        for b in range(0, 400, 4):
            for u, v in ((b, b + 1), (b, b + 2), (b + 2, b + 3)) + (((b - 4, b),) if b else ()):
                add_edge(chain, u, v)
        cases.append((chain, "min-fill", 1))
        for g, h, seed in cases:
            got, want = decompose(g, h, seed), reference_decompose(g, h, seed)
            assert (got.bags, got.edges) == (want.bags, want.edges), (g.n, h, seed)


class TestValidateTd:
    def test_no_nodes(self):
        assert validate_td(PrimalGraph(0), TreeDecomposition([], [])) == ["decomposition has no nodes"]

    def test_edge_to_unknown_node(self):
        # the edge is dropped from the tree, so the tree checks see one bag
        # apart and one edge too many
        td = TreeDecomposition([frozenset({0}), frozenset({0})], [(0, 2)])
        assert validate_td(PrimalGraph(1), td) == [
            "edge (0,2) references unknown node",
            "bag tree is disconnected",
        ]

    def test_disconnected_bags(self):
        g = PrimalGraph(2)
        td = TreeDecomposition([frozenset({0}), frozenset({1})], [])
        assert any("disconnected" in p for p in validate_td(g, td))

    def test_disconnected_tree_read_from_text(self):
        # read_td checks the syntax and the bag count; the tree shape is
        # validate_td's: N-1 edges, one of them twice, leave bag 3 apart
        td = read_td("s td 3 1 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n2 1", 3)
        assert any("disconnected" in p for p in validate_td(PrimalGraph(3), td))

    def test_cycle(self):
        td = TreeDecomposition([frozenset({0})] * 3, [(0, 1), (1, 2), (2, 0)])
        assert validate_td(PrimalGraph(1), td) == ["bag graph has a cycle or wrong edge count"]

    def test_split_occurrences(self):
        g = PrimalGraph(2)
        add_edge(g, 0, 1)
        td = TreeDecomposition([frozenset({0, 1}), frozenset({1}), frozenset({0, 1})], [(0, 1), (1, 2)])
        assert validate_td(g, td) == ["occurrences of vertex 0 are not connected"]

    def test_occurrences_match_subtree_search(self):
        # the holder/edge count against a search from one holder
        rng = random.Random(17)
        for _ in range(300):
            n_nodes, n = rng.randint(1, 9), rng.randint(1, 5)
            edges = [(rng.randrange(t), t) for t in range(1, n_nodes)]
            bags = [frozenset(v for v in range(n) if rng.random() < 0.4) for _ in range(n_nodes)]
            adj = [[] for _ in range(n_nodes)]
            for i, j in edges:
                adj[i].append(j)
                adj[j].append(i)
            split = set()
            for v in range(n):
                holders = {t for t in range(n_nodes) if v in bags[t]}
                if not holders:
                    continue
                reach, stack = {min(holders)}, [min(holders)]
                while stack:
                    for w in adj[stack.pop()]:
                        if w in holders and w not in reach:
                            reach.add(w)
                            stack.append(w)
                if reach != holders:
                    split.add(v)
            problems = validate_td(PrimalGraph(n), TreeDecomposition(bags, edges))
            assert {p for p in problems if "occurrences" in p} == {
                f"occurrences of vertex {v} are not connected" for v in split
            }

    def test_missing_edge_coverage(self, example1):
        g = primal_graph(example1)
        td = decompose(g, "min-fill", 0)
        e = example1.atom_id("e")
        stripped = TreeDecomposition([bag - {e} for bag in td.bags], list(td.edges))
        problems = validate_td(g, stripped)
        c = example1.atom_id("c")
        lo, hi = sorted((c, e))
        assert any(f"edge ({lo},{hi}) inside no bag" == p for p in problems)

    def test_vertex_coverage(self):
        g = PrimalGraph(2)
        td = TreeDecomposition([frozenset({0})], [])
        assert any("vertex 1" in p for p in validate_td(g, td))


def shape_signature(ntd, t):
    nd = ntd.nodes[t]
    return (nd.kind, nd.bag, nd.atom, tuple(shape_signature(ntd, c) for c in nd.children))


class TestMakeNice:
    def test_single_bag_forced_shape(self):
        td = TreeDecomposition([frozenset({0, 1})], [])
        ntd = make_nice(td)
        kinds = [ntd.nodes[t].kind for t in ntd.post_order()]
        assert kinds == ["leaf", "int", "int", "rem", "rem"]
        assert ntd.width == 1
        # introductions and removals each come in ascending atom order
        assert [ntd.nodes[t].atom for t in ntd.post_order()[1:]] == [0, 1, 0, 1]

    def test_fourteen_node_fixture_is_admissible(self, example1_td):
        program, ntd, ids = example1_td
        assert check_nice(ntd) == []
        assert ntd.width == 2
        assert len(ntd.nodes) == 14
        g = primal_graph(program)
        assert validate_td(g, to_tree_decomposition(ntd)) == []

    def test_idempotent_up_to_renaming(self):
        rng = random.Random(23)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 9))
            ntd = make_nice(decompose(g, "min-fill", 0))
            plain = to_tree_decomposition(ntd)
            again = make_nice(plain, root=ntd.root)
            assert shape_signature(ntd, ntd.root) == shape_signature(again, again.root)

    def test_width_preserved_on_random_graphs(self):
        rng = random.Random(77)
        for seed in range(200):
            g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.7))
            td = decompose(g, "min-degree" if seed % 2 else "min-fill", 0)
            ntd = make_nice(td)
            assert check_nice(ntd) == []
            assert ntd.width == td.width
            assert validate_td(g, to_tree_decomposition(ntd)) == []

    def test_empty_bag_multi_child_becomes_join(self):
        # an empty-bag node with two children becomes a join over the empty
        # bag, like any other multi-child node
        td = TreeDecomposition(
            [frozenset(), frozenset({0}), frozenset({1})], [(0, 1), (0, 2)]
        )
        g = PrimalGraph(2)
        ntd = make_nice(td, root=0)
        assert check_nice(ntd) == []
        joins = [nd for nd in ntd.nodes if nd.kind == "join"]
        assert [nd.bag for nd in joins] == [frozenset()]
        assert ntd.nodes[ntd.root] is joins[0]
        assert validate_td(g, to_tree_decomposition(ntd)) == []
        assert ntd.width == 0

    def test_supplied_decompositions_at_random_roots(self):
        # decompositions as a caller supplies them (random elimination order,
        # shuffled node ids), also as read back from a --td file, rooted at a
        # random bag: the nice form keeps the width
        rng = random.Random(1313)
        for _ in range(120):
            p = helpers.random_mixed(rng, rng.randint(1, 12), rng.randint(1, 14), max_size=4)
            td = helpers.random_decomposition(rng, primal_graph(p))
            for plain in (td, read_td(write_td(td), p.n_atoms)):
                ntd = make_nice(plain, root=rng.randrange(len(plain.bags)))
                assert check_nice(ntd) == []
                assert ntd.width == plain.width

    @staticmethod
    def order_problems(ntd):
        """Where node ids fail to be a post-order: a child id at or above
        its parent's, or a root that is not the last id.  ``run_dp`` and
        ``purge`` walk the ids in place of the tree, and ``run_dp``'s row-list
        ids start at 0 for every node, so a child visited after its parent
        would be read as row list 0 without an error."""
        problems = [f"child {c} of node {t}" for t, nd in enumerate(ntd.nodes) for c in nd.children if c >= t]
        if ntd.root != len(ntd.nodes) - 1:
            problems.append(f"root {ntd.root} of {len(ntd.nodes)} nodes")
        return problems

    def test_node_ids_are_a_post_order(self, example1_td):
        # every fuzz program's random decomposition at every root, plus the
        # hand-built fourteen-node tree
        _, ntd, _ = example1_td
        assert self.order_problems(ntd) == []
        rng = random.Random(3030)
        programs = [p for _, p, _ in helpers.projection_fuzz()] + list(helpers.overlap_fuzz())
        for p in programs:
            td = helpers.random_decomposition(rng, primal_graph(p))
            for root in range(len(td.bags)):
                ntd = make_nice(td, root=root)
                assert self.order_problems(ntd) == []
                assert ntd.post_order() == range(len(ntd.nodes))

    def test_no_nodes(self):
        with pytest.raises(ValueError, match="decomposition has no nodes"):
            make_nice(TreeDecomposition([], []))

    def test_empty_hub_with_many_children(self):
        # an empty bag linking four subtrees becomes three joins over the
        # empty bag, whichever bag is the root
        bags = [frozenset(), frozenset({0}), frozenset({1, 2}), frozenset({3}), frozenset({4, 5})]
        td = TreeDecomposition(bags, [(0, 1), (0, 2), (0, 3), (0, 4)])
        for root in range(len(bags)):
            ntd = make_nice(td, root=root)
            assert check_nice(ntd) == []
            assert ntd.width == td.width == 1
            joins = [nd for nd in ntd.nodes if nd.kind == "join"]
            assert len(joins) == (3 if root == 0 else 2)
            assert all(nd.bag == frozenset() for nd in joins)

    def test_root_and_leaf_bags_empty(self):
        rng = random.Random(13)
        g = random_graph(rng, 8)
        ntd = make_nice(decompose(g, "min-fill", 0))
        assert ntd.nodes[ntd.root].bag == frozenset()
        for nd in ntd.nodes:
            if nd.kind == "leaf":
                assert nd.bag == frozenset()


def slot_problems(ntd, slots, n_atoms):
    """Every atom has one slot in 0..width, and the atoms of a bag have
    distinct slots."""
    problems = []
    if len(slots) != n_atoms:
        problems.append(f"{len(slots)} slots for {n_atoms} atoms")
    for a, s in enumerate(slots):
        if not 0 <= s <= ntd.width:
            problems.append(f"atom {a}: slot {s} outside 0..{ntd.width}")
    for t, nd in enumerate(ntd.nodes):
        if len({slots[a] for a in nd.bag}) != len(nd.bag):
            problems.append(f"node {t}: atoms share a slot")
    return problems


class TestSlots:
    def test_fourteen_node_fixture(self, example1_td):
        program, ntd, _ = example1_td
        assert slot_problems(ntd, assign_slots(ntd, program.n_atoms), program.n_atoms) == []

    def test_seeded_nice_decompositions(self):
        rng = random.Random(2718)
        widths = set()
        for _ in range(150):
            p = helpers.random_mixed(rng, rng.randint(1, 14), rng.randint(1, 16), max_size=5)
            g = primal_graph(p)
            for h in ("min-fill", "min-degree"):
                for seed in (0, 1, 2):
                    ntd = make_nice(decompose(g, h, seed))
                    widths.add(ntd.width)
                    assert slot_problems(ntd, assign_slots(ntd, p.n_atoms), p.n_atoms) == []
            ntd = make_nice(helpers.random_decomposition(rng, g))
            assert slot_problems(ntd, assign_slots(ntd, p.n_atoms), p.n_atoms) == []
        assert max(widths) >= 6

    def test_td_file_inputs(self, tmp_path, capsys):
        # the --td file: path: read_td, validate_td, then solve's make_nice
        rng = random.Random(99)
        for i in range(30):
            p = helpers.random_mixed(rng, rng.randint(2, 10), rng.randint(1, 12), max_size=4)
            g = primal_graph(p)
            td = read_td(write_td(helpers.random_decomposition(rng, g)), p.n_atoms)
            assert validate_td(g, td) == []
            result = pipeline.solve(p, td=td)
            assert slot_problems(result.ttd.td, result.ttd.slots, p.n_atoms) == []

            lp, td_path = tmp_path / f"{i}.lp", tmp_path / f"{i}.td"
            lp.write_text("".join(f"{r}\n" for r in program_lines(p)))
            td_path.write_text(write_td(td))
            assert cli.main(["solve", str(lp), "--project-all", "--td", f"file:{td_path}", "--oracle-check"]) == 0
        capsys.readouterr()


def program_lines(p):
    """The program's rules as source text, atom ids in first-occurrence
    order as in ``p``."""
    for r in p.rules:
        head = " | ".join(p.atom_names[a] for a in r.head)
        body = [p.atom_names[a] for a in r.pos_body] + [f"not {p.atom_names[a]}" for a in r.neg_body]
        yield head + (" :- " + ", ".join(body) if body else "") + "."
