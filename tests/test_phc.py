import math
import random
from pathlib import Path

import pytest

import helpers
from paspc import engine, oracle, pipeline
from paspc.decomposition import decompose, make_nice, primal_graph
from paspc.engine import has_solution, node_table, run_dp
from paspc.formats import parse_program
from paspc.phc import PhcAlgorithm, PhcRow, gp
from paspc.program import Program, classify, mask_of
from reference import check_row_invariants, table_dict, table_of

# the paper's full-ordering PHC over enough atom ids for the programs below
PHC = helpers.paper_phc(8)


def masks(p, names):
    return p.mask(names)


def one_bag_rules(p):
    """The program's rules in PHC's form for one bag holding every atom,
    with atom a in slot a: slot masks equal atom masks, so the rows and
    values below read the same in both."""
    return [PHC.rule(r, range(p.n_atoms)) for r in p.rules]


def one_bag_context(p, atom, rules):
    """PHC's context of the given atom and rules in that one bag."""
    return PHC.context(atom, rules, range(p.n_atoms), range(p.n_atoms))


def one_bag_gp_rules(p):
    """``one_bag_rules`` as ``gp`` reads them, from PHC's context."""
    return one_bag_context(p, 0, one_bag_rules(p))[3]


def ranked(*atoms):
    """The paper PHC's ordering of the given atoms, in that order, in the one
    bag: every atom is in one component, so an atom's rank is its
    position, and atom a is in slot a."""
    return tuple(sorted((a, i) for i, a in enumerate(atoms)))


class TestGp:
    def test_fact_disjunction_proves_only_chosen_atom(self):
        p = Program.from_specs([(("a", "b"), (), ())])
        b = p.atom_id("b")
        got = gp(p.mask("b"), ranked(b), one_bag_gp_rules(p))
        assert got == p.mask("b")

    def test_ordering_blocks_proof(self):
        # I={b,e}, order <b,e>: e provable through the disjunction, b is not
        # because its body atom e comes later
        p = Program.from_specs([(("b",), ("e",), ("d",)), (("d", "e"), ("b",), ())])
        b, e = p.atom_id("b"), p.atom_id("e")
        interp = p.mask("be")
        assert gp(interp, ranked(b, e), one_bag_gp_rules(p)) == p.mask("e")

    def test_ordering_enables_proof(self):
        # under <e,b> the body atom e precedes b, so b becomes provable;
        # e itself has no rule usable under this ordering
        p = Program.from_specs([(("b",), ("e",), ("d",)), (("d", "e"), ("b",), ())])
        b, e = p.atom_id("b"), p.atom_id("e")
        interp = p.mask("be")
        assert gp(interp, ranked(e, b), one_bag_gp_rules(p)) == p.mask("b")

    def test_accumulated_proofs_complete_the_row(self):
        # a child row that already proved e splits on the two insertions of
        # b: only the ordering putting e first proves b as well
        p = Program.from_specs([(("b",), ("e",), ("d",)), (("d", "e"), ("b",), ())])
        b, e = p.atom_id("b"), p.atom_id("e")
        child = single_row_table(PhcRow(1 << e, 1 << e, ranked(e)))
        out = table_dict(node_table(PHC, "int", one_bag_context(p, b, one_bag_rules(p)), [child]))
        with_b = {row for row in out if row.interp == p.mask("be")}
        assert with_b == {
            PhcRow(p.mask("be"), 1 << e, ranked(b, e)),
            PhcRow(p.mask("be"), p.mask("be"), ranked(e, b)),
        }


class TestOrds:
    """Insertions of an introduced cyclic atom into an ordering of three
    components (ids 0, 2, 4): only the ranks in the atom's own component
    change.  ``orders`` introduces the atom into a bag of the ordered atoms,
    atom a in slot a, and lists each ordering it yields with the atom true
    as atom ids by (component id, rank), the form the trace dumps print."""

    ALG = PhcAlgorithm({1: 0, 3: 0, 0: 2, 2: 2, 4: 2, 6: 3, 5: 4})
    ORDER = (1, 0, 2, 5)

    def orders(self, order, atom):
        comp = self.ALG.components
        # each listed atom's rank among the atoms of its component listed before it
        slot_form = tuple(sorted((a, sum(comp[b] == comp[a] for b in order[:i])) for i, a in enumerate(order)))
        ctx = self.ALG.context(atom, [], (*order, atom), range(8))
        rows = [row for row, _ in self.ALG.introduce(ctx, [PhcRow(mask_of(order), 0, slot_form)])]
        with_atom = [row.order for row in rows if row.interp >> atom & 1]
        return [tuple(s for _, _, s in sorted((comp[s], r, s) for s, r in order)) for order in with_atom]

    def test_empty_block(self):
        # component 3 has no ordered atom yet: one position, between 2 and 4
        assert self.orders(self.ORDER, 6) == [(1, 0, 2, 6, 5)]
        assert self.orders((), 6) == [(6,)]

    def test_two_positions(self):
        assert self.orders(self.ORDER, 3) == [(3, 1, 0, 2, 5), (1, 3, 0, 2, 5)]

    def test_three_positions(self):
        assert self.orders(self.ORDER, 4) == [(1, 4, 0, 2, 5), (1, 0, 4, 2, 5), (1, 0, 2, 4, 5)]


def single_row_table(row):
    return table_of([row], [[()]])


class TestPhcTransitions:
    def test_introduce_without_rules(self):
        child = single_row_table(PhcRow(0, 0, ()))
        out = table_dict(node_table(PHC, "int", PHC.context(0, [], (0,), range(8)), [child]))
        assert set(out) == {PhcRow(0, 0, ()), PhcRow(1, 0, ranked(0))}
        assert all(origin == [(0,)] for origin in out.values())

    def test_introduce_filters_non_models(self):
        # introducing b over {a} with rule a | b: the all-false row dies
        p = Program.from_specs([(("a", "b"), (), ())])
        a, b = p.atom_id("a"), p.atom_id("b")
        child = table_of([PhcRow(0, 0, ()), PhcRow(1 << a, 0, ranked(a))], [[()], [()]])
        out = table_dict(node_table(PHC, "int", one_bag_context(p, b, one_bag_rules(p)), [child]))
        interps = {row.interp for row in out}
        assert 0 not in interps
        assert interps == {p.mask("a"), p.mask("b"), p.mask("ab")}
        # the single-atom models prove their own atom, the two-atom one cannot
        assert {row.proven for row in out if row.interp == p.mask("ab")} == {0}
        assert {row.proven for row in out if row.interp == p.mask("a")} == {p.mask("a")}

    def test_remove_requires_proof_or_absence(self):
        p = Program.from_specs([(("a", "b"), (), ())])
        a, b = p.atom_id("a"), p.atom_id("b")
        rows = [
            PhcRow(p.mask("a"), p.mask("a"), ranked(a)),
            PhcRow(p.mask("b"), p.mask("b"), ranked(b)),
            PhcRow(p.mask("ab"), 0, ranked(a, b)),
            PhcRow(p.mask("ab"), 0, ranked(b, a)),
        ]
        child = table_of(rows, [[()]] * 4)
        out = table_dict(node_table(PHC, "rem", one_bag_context(p, a, []), [child]))
        assert set(out) == {PhcRow(0, 0, ()), PhcRow(1 << b, 1 << b, ranked(b))}

    def test_join_matches_interpretation_and_order(self):
        r1 = PhcRow(0b11, 0b01, ranked(0, 1))
        r2 = PhcRow(0b11, 0b10, ranked(0, 1))
        r3 = PhcRow(0b11, 0b10, ranked(1, 0))
        left = table_of([r1], [[()]])
        right = table_of([r2, r3], [[()], [()]])
        out = table_dict(node_table(PHC, "join", None, [left, right]))
        assert out == {PhcRow(0b11, 0b11, ranked(0, 1)): [(0, 0)]}

    def test_join_lists_pairs_left_row_outer(self):
        # every pair proves both atoms, so one row takes all four pairs, in
        # ascending order: the left row outer, the right row inner
        left = table_of([PhcRow(0b11, 0b01, ()), PhcRow(0b11, 0b11, ())], [[()], [()]])
        right = table_of([PhcRow(0b11, 0b11, ()), PhcRow(0b11, 0b10, ())], [[()], [()]])
        out = table_dict(node_table(PHC, "join", None, [left, right]))
        assert out == {PhcRow(0b11, 0b11, ()): [(0, 0), (0, 1), (1, 0), (1, 1)]}


class TestConsistent:
    def test_example1(self, example1_td):
        program, ntd, _ = example1_td
        assert has_solution(run_dp(PHC, program, ntd))

    def test_negative_self_loop_inconsistent(self):
        p = Program.from_specs([(("a",), (), ("a",))])
        ttd = run_dp(PHC, p, make_nice(decompose(primal_graph(p))))
        assert ttd.table(ttd.td.root).rows == []
        assert not has_solution(ttd)

    def test_empty_program(self):
        p = Program.from_specs([])
        ttd = run_dp(PHC, p, make_nice(decompose(primal_graph(p))))
        assert has_solution(ttd)


class TestTightVariant:
    """``phc`` is the SCC-local PHC; on a tight program its orderings stay
    empty, and it must agree with the paper's full-ordering PHC."""

    def test_single_fact(self):
        p = Program.from_specs([(("a",), (), ())])
        ntd = make_nice(decompose(primal_graph(p)))
        ttd = run_dp(pipeline.pick_algorithm(classify(p), "phc", ntd.width), p, ntd)
        assert has_solution(ttd)
        intro = [t for t in ttd.post_order if ttd.td.nodes[t].kind == "int"][0]
        rows = [PhcRow(ttd.decode(intro, r.interp), ttd.decode(intro, r.proven), r.order) for r in ttd.table(intro).rows]
        assert rows == [PhcRow(1, 1, ())]

    def test_even_loop_counts(self):
        p = Program.from_specs([(("a",), (), ("b",)), (("b",), (), ("a",))])
        assert pipeline.solve(p.with_projection(p.mask("a")), algorithm="phc").count == 2
        assert pipeline.solve(p.with_projection(0), algorithm="phc").count == 1

    def test_tight_fuzz_matches_phc_and_oracle(self):
        rng = random.Random(2024)
        for _ in range(200):
            p = helpers.random_tight(rng, rng.randint(1, 7), rng.randint(1, 9))
            p = p.with_projection(helpers.random_projection(rng, p))
            want = oracle.projected_count(p)
            tight = pipeline.solve(p, algorithm="phc").count
            full = helpers.count_with(helpers.paper_phc(p.n_atoms), p)
            assert tight == full == want


class TestSccLocal:
    def test_orderings_hold_only_cyclic_atoms(self):
        p = parse_program(helpers.WIDE_HCF_TEXT)
        nice = make_nice(decompose(primal_graph(p)))
        alg = pipeline.pick_algorithm(classify(p), "auto", nice.width)
        assert set(alg.components) == {p.atom_id(a) for a in ("x3", "x5", "x6")}
        ttd = run_dp(alg, p, nice)
        assert check_row_invariants(ttd) == []
        assert max(len(ttd.table(t)) for t in ttd.post_order) < 180

    def test_independent_components_never_interleave(self):
        # the constraint puts both two-cycles into one bag
        p = parse_program("a :- b. b :- a. c :- d. d :- c. a. c. :- not a, not b, not c, not d.")
        nice = make_nice(decompose(primal_graph(p)))
        ttd = run_dp(pipeline.pick_algorithm(classify(p), "auto", nice.width), p, nice)
        assert check_row_invariants(ttd) == []

    def test_wide_rule_fuzz_matches_oracle_under_three_decompositions(self):
        # rules of up to five atoms over up to twelve atoms: wide bags that
        # the full ordering could not afford
        rng = random.Random(4141)
        decompositions = (("min-fill", 0), ("min-degree", 0), ("min-fill", 3))
        for i in range(200):
            gen = helpers.random_hcf if i % 2 else helpers.random_normal
            p = gen(rng, rng.randint(2, 12), rng.randint(1, 12), max_size=5)
            p = p.with_projection(helpers.random_projection(rng, p))
            want = oracle.projected_count(p)
            for heuristic, seed in decompositions:
                got = pipeline.solve(p, heuristic=heuristic, seed=seed).count
                assert got == want, (i, heuristic, seed)


class TestSlotRows:
    """Orderings and contexts name slots, not atom ids: blocks that differ
    only in their atoms' names share tables and projection plans, and ranks
    are counted within each component."""

    @pytest.fixture
    def workloads(self, monkeypatch):
        # the bench's generators, imported from its directory as its scripts do
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import workloads

        return workloads

    def test_chain_tables_and_plans_do_not_grow_with_its_blocks(self, workloads):
        # every block of chain_k has a positive two-cycle p_i <-> q_i
        built = []
        for blocks in (50, 100):
            p = parse_program(workloads.chain_k(blocks, 1, "hcf"))
            phc, prim = (pipeline.solve(p, algorithm=a) for a in ("phc", "prim"))
            assert phc.count == prim.count == workloads.closed_form(blocks, 1, False)
            assert phc.stats.built_tables <= 2 * prim.stats.built_tables, blocks
            assert phc.stats.proj_plans <= 2 * prim.stats.proj_plans, blocks
            built.append((phc.stats.built_tables, phc.stats.proj_plans))
        assert built[0] == built[1]

    def test_an_introduced_atom_is_ranked_within_its_component(self):
        # a, b (component 0) and d (component 1) ordered, c (component 1)
        # introduced: c takes rank 0 or 1 next to d, and a, b keep theirs
        alg = PhcAlgorithm({0: 0, 1: 0, 2: 1, 3: 1})
        ctx = alg.context(2, [], range(4), range(4))
        child = PhcRow(0b1011, 0, ((0, 0), (1, 1), (3, 0)))
        got = [row.order for row, _ in alg.introduce(ctx, [child]) if row.interp & 0b100]
        assert got == [((0, 0), (1, 1), (2, 0), (3, 1)), ((0, 0), (1, 1), (2, 1), (3, 0))]

    def test_a_removed_atom_lowers_only_its_component(self):
        # removing b (rank 0 of component 0) lowers a, not d (rank 1 of
        # component 1)
        alg = PhcAlgorithm({0: 0, 1: 0, 2: 1, 3: 1})
        ctx = alg.context(1, [], (0, 2, 3), range(4))
        child = PhcRow(0b1111, 0b0010, ((0, 1), (1, 0), (2, 0), (3, 1)))
        assert [row.order for row, _ in alg.remove(ctx, [child])] == [((0, 0), (2, 0), (3, 1))]


def table_bound_ok(ttd):
    for t in ttd.post_order:
        k = len(ttd.td.nodes[t].bag)
        if len(ttd.table(t)) > 3**k * math.factorial(k):
            return False
    return True


class TestInvariants:
    def test_row_invariants_and_bound_on_fuzz(self):
        rng = random.Random(55)
        for _ in range(60):
            p = helpers.random_mixed(rng, rng.randint(1, 7), rng.randint(1, 9), max_head=1)
            ntd = make_nice(decompose(primal_graph(p), "min-fill", 0))
            for alg in (helpers.paper_phc(p.n_atoms), pipeline.pick_algorithm(classify(p), "auto", ntd.width)):
                ttd = run_dp(alg, p, ntd)
                assert check_row_invariants(ttd) == []
                assert table_bound_ok(ttd)

    def test_proofs_never_lost_along_origins(self, example1_td):
        # along any origin edge, atoms proven at the child stay proven at the
        # parent as long as they remain in the bag
        program, ntd, _ = example1_td
        ttd = run_dp(PHC, program, ntd)
        for t in ttd.post_order:
            nd = ttd.td.nodes[t]
            tab = ttd.table(t)
            origins = tab.origins
            for i, row in enumerate(tab.rows):
                for seq in origins[i]:
                    for ci, j in enumerate(seq):
                        c = nd.children[ci]
                        kept = ttd.decode(c, ttd.table(c).rows[j].proven) & mask_of(nd.bag)
                        assert kept & ~ttd.decode(t, row.proven) == 0
