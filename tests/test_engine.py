import random
from bisect import bisect_left
from collections import Counter

import pytest

import helpers
from paspc import oracle, pipeline
from paspc.cli import purged_origins
from paspc.decomposition import LEAF, assign_slots, decompose, make_nice, primal_graph
from paspc.engine import bag_rule, entering_rules, node_table, purge, run_dp
from paspc.phc import PhcRow
from paspc.prim import DENSE_MAX_WIDTH, PrimAlgorithm, PrimRow, SparsePrimAlgorithm
from paspc.program import Program, ProgramKind, Rule, classify, mask_of
from reference import definitional_origins, node_scope, origins, origins_table, verify_origins

# the paper's full-ordering PHC; the programs below have at most 8 atoms
PHC = helpers.paper_phc(8)
PRIM = PrimAlgorithm()


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

        def decoded(row):
            return ttd.decode(ids["t3"], row.interp), ttd.decode(ids["t3"], row.proven)

        assert {decoded(r)[0] for r in t3.rows} == {1 << a, 1 << b, (1 << a) | (1 << b)}
        survivors = origins_table(ttd, ids["t4"], t4.rows)
        for (row,) in survivors:
            interp, proven = decoded(row)
            assert proven & (1 << a) or not interp & (1 << a)
        dead = [r for r in t3.rows if decoded(r)[0] & (1 << a) and not decoded(r)[1] & (1 << a)]
        assert dead, "fixture should exercise the filter"
        assert all((r,) not in survivors for r in dead)


class TestNodeTable:
    @pytest.mark.parametrize(
        "alg, empty_row",
        [(PHC, PhcRow(0, 0, ())), (PRIM, PrimRow(0, 0)), (SparsePrimAlgorithm(), PrimRow(0, frozenset()))],
        ids=["phc", "prim", "sparse-prim"],
    )
    def test_leaf(self, alg, empty_row):
        # a leaf's one row is the algorithm's empty row, with the empty
        # origin, and only while the atomless rules hold
        assert alg.solution_row == empty_row
        assert node_table(alg, LEAF, None, None, [], []) == {empty_row: [()]}
        assert node_table(alg, LEAF, None, None, [bag_rule(Rule((), (), ()), [])], []) == {}


class TestBagPrograms:
    """A node's bag program, the rules that fit its bag, reaches the table
    algorithm split up: each rule enters where it first fits."""

    @staticmethod
    def check_entering(p, td):
        rules = entering_rules(p, td, assign_slots(td, p.n_atoms))

        def fitting(bag):
            return {r for r in p.rules if bag.issuperset(r.head + r.pos_body + r.neg_body)}

        entered = set()
        for t in td.post_order():
            nd = td.nodes[t]
            got = {r.source for r in rules[t]}
            if nd.kind == "leaf":
                assert got == fitting(frozenset())
            elif nd.kind in ("rem", "join"):
                assert got == set()
            else:
                assert got == fitting(nd.bag) - fitting(td.nodes[nd.children[0]].bag)
            entered |= got
        assert entered == set(p.rules)

    def test_rules_enter_where_they_first_fit(self, example1_td):
        program, ntd, _ = example1_td
        self.check_entering(program, ntd)
        # an atomless constraint enters at the leaves
        p = Program.from_specs([((), (), ()), (("a",), (), ("b",)), (("b",), (), ("a",))])
        td = make_nice(decompose(primal_graph(p)))
        self.check_entering(p, td)
        leaves = [t for t in td.post_order() if td.nodes[t].kind == "leaf"]
        rules = entering_rules(p, td, assign_slots(td, p.n_atoms))
        assert all([r.source for r in rules[t]] == [Rule((), (), ())] for t in leaves)

    def test_two_rules_enter_at_t8(self, example1_td):
        # introducing e over {b,d}: "d | e :- b." and "b :- e, not d." become
        # complete; "d :- not b." entered at t7, "c | e." needs c
        program, ntd, ids = example1_td
        rules = entering_rules(program, ntd, assign_slots(ntd, program.n_atoms))
        b, d, e = (program.atom_id(x) for x in "bde")
        want = {Rule(tuple(sorted((d, e))), (b,), ()), Rule((b,), (e,), (d,))}
        assert {r.source for r in rules[ids["t8"]]} == want

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
        t8 = ids["t8"]
        for row in ttd.table(ids["t9"]).rows:
            for (child_row,) in origins(ttd, ids["t9"], row):
                proven, interp = ttd.decode(t8, child_row.proven), ttd.decode(t8, child_row.interp)
                assert proven & (1 << d) or not interp & (1 << d)

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


def origin_fuzz():
    """(form, tabled decomposition) pairs on seeded programs: ``phc`` and the
    paper's full-ordering PHC on the programs that are not disjunctive, and
    both ``prim`` forms on every program, the frozenset form forced on the
    same narrow decompositions; then ``prim`` on decompositions wider than
    ``DENSE_MAX_WIDTH``, where ``run_dp`` picks the frozenset form itself.
    The narrow programs of 6-12 atoms branch in their decompositions, so
    join rows of several origin pairs occur."""
    rng = random.Random(6060)
    for _ in range(40):
        p = helpers.random_mixed(rng, rng.randint(6, 12), rng.randint(5, 11))
        nice = make_nice(decompose(primal_graph(p)))
        if classify(p).kind is not ProgramKind.DISJUNCTIVE:
            yield "phc", run_dp(pipeline.pick_algorithm(p, "phc"), p, nice)
            yield "paper phc", run_dp(helpers.paper_phc(p.n_atoms), p, nice)
        yield "prim bitsets", run_dp(PrimAlgorithm(), p, nice)
        yield "prim frozensets", run_dp(SparsePrimAlgorithm(), p, nice)
    rng = random.Random(2)
    for _ in range(6):
        p = helpers.random_disjunctive(rng, rng.randint(14, 18), rng.randint(8, 12), max_size=8)
        nice = make_nice(decompose(primal_graph(p)))
        if nice.width > DENSE_MAX_WIDTH:
            ttd = run_dp(PrimAlgorithm(), p, nice)
            assert isinstance(ttd.alg, SparsePrimAlgorithm)
            yield "prim frozensets, wide", ttd


def strictly_ascending(seqs):
    return all(a < b for a, b in zip(seqs, seqs[1:]))


class TestOriginLists:
    """Each row's origins are listed in emission order, which is strictly
    ascending: a one-child node visits each child row once and the rows one
    child row yields are distinct, and a join visits each matching pair once,
    left row outer."""

    def test_strictly_ascending(self):
        # a join row whose pairs a right-outer loop would list in another
        # order, per form: there a swapped join loop shows.  Such rows are
        # rare under phc; tests/test_phc.py pins one by hand.
        swap_visible = Counter()
        for form, ttd in origin_fuzz():
            swap_visible[form] += 0
            for t in ttd.post_order:
                tab = ttd.table(t)
                for seqs in tab.origins:
                    assert seqs and strictly_ascending(seqs), (form, t, seqs)
                if ttd.td.nodes[t].kind == "join":
                    swap_visible[form] += sum(sorted(seqs, key=lambda s: s[::-1]) != seqs for seqs in tab.origins)
        assert set(swap_visible) == {"phc", "paper phc", "prim bitsets", "prim frozensets", "prim frozensets, wide"}
        assert {form for form, n in swap_visible.items() if n} == {"prim bitsets", "prim frozensets", "prim frozensets, wide"}

    def test_purged_origins_are_the_lists_reindexed(self):
        # the kept child rows are ascending, so re-indexing keeps each list
        # ascending and no sort is needed
        for form, ttd in origin_fuzz():
            purged = purge(ttd)
            for t in ttd.post_order:
                children = ttd.td.nodes[t].children
                want = []
                for j in purged.kept[t]:
                    seqs = []
                    for seq in ttd.table(t).origins[j]:
                        at = tuple(bisect_left(purged.kept[c], x) for c, x in zip(children, seq))
                        assert all(purged.kept[c][i] == x for c, i, x in zip(children, at, seq)), (form, t)
                        seqs.append(at)
                    want.append(seqs)
                got = purged_origins(purged, t)
                assert got == want, (form, t)
                assert all(strictly_ascending(seqs) for seqs in got), (form, t)


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
        bag_mask = mask_of(ttd.td.nodes[t8].bag)
        answer_sets = oracle.enumerate_answer_sets(program)
        # some table row does not extend and must be gone
        assert len(purged.rows[t8]) < len(ttd.table(t8))
        for row in purged.rows[t8]:
            assert any(a & bag_mask == ttd.decode(t8, row.interp) for a in answer_sets)

    def test_purged_rows_reachable_from_parent(self, example1_td):
        program, ids, ttd = run_example1(example1_td)
        purged = purge(ttd)
        td = ttd.td
        for t in ttd.post_order:
            for ci, c in enumerate(td.nodes[t].children):
                reached = set()
                for seqs in purged_origins(purged, t):
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
        origins = purged_origins(purged, t)
        for i, row in enumerate(purged.rows[t]):
            interp = ttd.decode(t, alg.interp(row))
            if not nd.children:
                ext[t].append({interp})
                continue
            combos: set[int] = set()
            for seq in origins[i]:
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
