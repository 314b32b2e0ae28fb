import random

import pytest

import helpers
from paspc import oracle
from paspc.decomposition import decompose, make_nice, primal_graph
from paspc.engine import bag_programs, purge, run_dp
from paspc.phc import PhcRow
from paspc.prim import PRIM
from paspc.program import Program
from reference import definitional_origins, node_scope, origins, origins_table, verify_origins

# the paper's full-ordering PHC; the programs below have at most 8 atoms
PHC = helpers.paper_phc(8)


def run_example1(example1_td):
    program, ntd, ids = example1_td
    return program, ids, run_dp(PHC, program, ntd)


class TestRunDp:
    def test_root_table_is_solution_row(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        assert ttd.table(ids["t14"]).rows == [PhcRow(0, 0, ())]

    def test_empty_program_trivial_decomposition(self):
        p = Program.from_specs([])
        ttd = run_dp(PHC, p, make_nice(decompose(primal_graph(p))))
        assert ttd.table(ttd.td.root).rows == [PhcRow(0, 0, ())]

    def test_inconsistent_program_empty_root(self):
        p = Program.from_specs([(("a",), (), ("a",))])
        ttd = run_dp(PHC, p, make_nice(decompose(primal_graph(p))))
        assert ttd.table(ttd.td.root).rows == []

    def test_remove_node_filters_unproven(self, example1_td):
        # at the bag-{b} node removing a, rows of the {a,b} table keeping a
        # unproven have no successor
        program, ids, ttd = run_example1(example1_td)
        a = program.atom_id("a")
        b = program.atom_id("b")
        t3 = ttd.table(ids["t3"])
        t4 = ttd.table(ids["t4"])
        assert {r.interp for r in t3.rows} == {1 << a, 1 << b, (1 << a) | (1 << b)}
        survivors = origins_table(ttd, ids["t4"], t4.rows)
        for (row,) in survivors:
            assert row.proven & (1 << a) or not row.interp & (1 << a)
        dead = [r for r in t3.rows if r.interp & (1 << a) and not r.proven & (1 << a)]
        assert dead, "fixture should exercise the filter"
        assert all((r,) not in survivors for r in dead)


class TestBagPrograms:
    def test_bag_program_membership(self, example1_td):
        program, ntd, ids = example1_td
        rules = bag_programs(program, ntd)
        by_key = {
            (tuple(r.head), tuple(r.pos_body), tuple(r.neg_body)): r for r in program.rules
        }
        for t in ntd.post_order():
            bag_mask = ntd.nodes[t].bag_mask
            expected = {r.key() for r in program.rules if not r.atom_mask & ~bag_mask}
            assert {r.key() for r in rules[t]} == expected

    def test_t8_sees_three_rules(self, example1_td):
        program, ntd, ids = example1_td
        rules = bag_programs(program, ntd)
        assert len(rules[ids["t8"]]) == 3

    def test_scope_at_root_is_whole_program(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        scope = node_scope(ttd, ids["t14"])
        assert scope.rules_below == frozenset(program.rules)
        assert scope.atoms_below == program.atom_mask

    def test_scope_strictly_below(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        scope = node_scope(ttd, ids["t4"])
        assert scope.atoms_below == program.mask("ab")
        assert scope.atoms_strictly_below == program.mask("a")


class TestOrigins:
    def test_leaf_origin_is_empty_sequence(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        assert origins(ttd, ids["t1"], PhcRow(0, 0, ())) == {()}

    def test_missing_row_raises(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        with pytest.raises(KeyError):
            origins(ttd, ids["t1"], PhcRow(1, 0, (0,)))

    def test_remove_origins_satisfy_guard(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        d = program.atom_id("d")
        for row in ttd.table(ids["t9"]).rows:
            for (child_row,) in origins(ttd, ids["t9"], row):
                assert child_row.proven & (1 << d) or not child_row.interp & (1 << d)

    def test_join_origins_pair_matching_rows(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        left = ttd.table(ids["t4"])
        right = ttd.table(ids["t12"])
        for row in ttd.table(ids["t13"]).rows:
            seqs = origins(ttd, ids["t13"], row)
            assert seqs
            for l, r in seqs:
                assert l in left.rows and r in right.rows
                assert l.interp == r.interp == row.interp
                assert l.order == r.order == row.order
                assert l.proven | r.proven == row.proven

    def test_origins_table_union(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        t4 = ttd.table(ids["t4"])
        both = origins_table(ttd, ids["t4"], t4.rows)
        assert both == origins(ttd, ids["t4"], t4.rows[0]) | origins(ttd, ids["t4"], t4.rows[1])
        assert origins_table(ttd, ids["t4"], []) == set()

    def test_recorded_origins_match_definition(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        for t in ttd.post_order:
            tab = ttd.table(t)
            for i, row in enumerate(tab.rows):
                assert set(tab.origins[i]) == definitional_origins(ttd, t, row)

    def test_recorded_origins_match_definition_fuzz(self):
        rng = random.Random(8)
        for alg in (PHC, PRIM):
            for _ in range(8):
                p = helpers.random_mixed(rng, rng.randint(1, 5), rng.randint(1, 6))
                ttd = run_dp(alg, p, make_nice(decompose(primal_graph(p))))
                assert verify_origins(ttd) == []


class TestPurge:
    def test_inconsistent_program_all_empty(self):
        p = Program.from_specs([(("a",), (), ("a",))])
        ttd = run_dp(PHC, p, make_nice(decompose(primal_graph(p))))
        purged = purge(ttd)
        assert all(rows == [] for rows in purged.rows)

    def test_every_row_survives_when_all_extend(self):
        # two independent facts: each node's table holds exactly the rows of
        # the unique answer set, so purging removes nothing
        p = Program.from_specs([(("a",), (), ()), (("b",), (), ())])
        ttd = run_dp(PHC, p, make_nice(decompose(primal_graph(p))))
        purged = purge(ttd)
        for t in ttd.post_order:
            assert len(purged.rows[t]) == len(ttd.table(t)) > 0

    def test_non_extending_rows_dropped_at_e_introduce(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        purged = purge(ttd)
        t8 = ids["t8"]
        bag_mask = ttd.td.nodes[t8].bag_mask
        answer_sets = oracle.enumerate_answer_sets(program)
        # some table row does not extend and must be gone
        assert len(purged.rows[t8]) < len(ttd.table(t8))
        for row in purged.rows[t8]:
            assert any(a & bag_mask == row.interp for a in answer_sets)

    def test_purged_rows_reachable_from_parent(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        purged = purge(ttd)
        td = ttd.td
        for t in ttd.post_order:
            for ci, c in enumerate(td.nodes[t].children):
                reached = set()
                for seqs in purged.origins[t]:
                    for seq in seqs:
                        reached.add(seq[ci])
                assert reached == set(range(len(purged.rows[c])))


def extension_interpretations(purged):
    """All interpretation unions along mutually-originating purged rows,
    bottom-up; equals the answer sets when purging is faithful."""
    ttd = purged.ttd
    td = ttd.td
    alg = ttd.alg
    ext: list[list[set[int]]] = [[] for _ in td.nodes]
    for t in ttd.post_order:
        nd = td.nodes[t]
        for i, row in enumerate(purged.rows[t]):
            interp = alg.interp(row)
            if not nd.children:
                ext[t].append({interp})
                continue
            combos: set[int] = set()
            for seq in purged.origins[t][i]:
                parts = [ext[nd.children[k]][j] for k, j in enumerate(seq)]
                if len(parts) == 1:
                    combos.update(interp | x for x in parts[0])
                else:
                    for x in parts[0]:
                        for y in parts[1]:
                            combos.add(interp | x | y)
            ext[t].append(combos)
    out = set()
    for combos in ext[td.root]:
        out.update(combos)
    return out


class TestExtensionCorrespondence:
    def test_example1(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        got = extension_interpretations(purge(ttd))
        assert got == set(oracle.enumerate_answer_sets(program))

    def test_small_fuzz_both_algorithms(self):
        # PHC is sound only on head-cycle-free programs, so it draws normal
        # and HCF ones; prim takes any program
        phc_generators = (helpers.random_normal, helpers.random_hcf)
        rng = random.Random(1234)
        for alg in (PHC, PRIM):
            for i in range(40):
                gen = phc_generators[i % 2] if alg is PHC else helpers.random_mixed
                p = gen(rng, rng.randint(1, 6), rng.randint(1, 7))
                ttd = run_dp(alg, p, make_nice(decompose(primal_graph(p))))
                got = extension_interpretations(purge(ttd))
                assert got == set(oracle.enumerate_answer_sets(p))
