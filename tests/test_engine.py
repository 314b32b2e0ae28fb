import copy
import inspect
import random
from bisect import bisect_left
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import helpers
from paspc import oracle, pipeline
from paspc.cli import purged_origins
from paspc.decomposition import INTRODUCE, LEAF, REMOVE, TreeDecomposition, decompose, make_nice, primal_graph
from paspc.engine import NO_MORE, TableAlgorithm, entering_rules, has_solution, node_table, purge, run_dp
from paspc.formats import parse_program
from paspc.phc import PhcAlgorithm, PhcRow
from paspc.prim import DENSE_MAX_WIDTH, PrimAlgorithm, PrimRow, SparsePrimAlgorithm
from paspc.program import Program, ProgramKind, Rule, classify, is_model, mask_of
from paspc.proj import final_count, run_proj
from reference import (
    definitional_origins,
    node_context,
    node_rules,
    node_scope,
    origins,
    origins_table,
    reference_context,
    reference_entering_rules,
    reference_purge,
    table_dict,
    table_of,
    verify_origins,
)

# the paper's full-ordering PHC; the programs below have at most 8 atoms
PHC = helpers.paper_phc(8)
# the bitset prim at its widest: it runs every decomposition up to that width
PRIM = PrimAlgorithm(DENSE_MAX_WIDTH)


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
        assert table_dict(node_table(alg, LEAF, is_model(0, []), [])) == {empty_row: [()]}
        assert table_dict(node_table(alg, LEAF, is_model(0, [alg.rule(Rule((), (), ()), [])]), [])) == {}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown node kind 'bogus'"):
            node_table(PHC, "bogus", None, [])

    def test_rows_in_emission_order(self):
        # node_table keeps the order the algorithm first emitted each row
        # in, whatever order run_dp later stores them in; a repeated row
        # adds a further origin
        class Emitting:
            def introduce(self, ctx, child_rows):
                return iter(ctx)

        pairs = (("b", 0), ("a", 0), ("b", 1), ("c", 1), ("a", 2))
        tab = node_table(Emitting(), INTRODUCE, pairs, [table_of(["x", "y", "z"], [[()]] * 3)])
        assert tab.rows == ["b", "a", "c"]
        assert list(tab.first) == [0, 0, 1] and dict(tab.more) == {0: (1,), 1: (2,)}


class TestBagPrograms:
    """A node's bag program, the rules that fit its bag, reaches the table
    algorithm split up: each rule enters where it first fits."""

    @staticmethod
    def check_entering(p, td):
        rules = entering_rules(p, td, p.rules)

        def fitting(bag):
            return {r for r in p.rules if bag.issuperset(r.head + r.pos_body + r.neg_body)}

        entered = set()
        for t in td.post_order():
            nd = td.nodes[t]
            got = set(rules[t])
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
        rules = entering_rules(p, td, p.rules)
        assert all(rules[t] == [Rule((), (), ())] for t in leaves)

    def test_two_rules_enter_at_t8(self, example1_td):
        # introducing e over {b,d}: "d | e :- b." and "b :- e, not d." become
        # complete; "d :- not b." entered at t7, "c | e." needs c
        program, ntd, ids = example1_td
        rules = entering_rules(program, ntd, program.rules)
        b, d, e = (program.atom_id(x) for x in "bde")
        want = {Rule(tuple(sorted((d, e))), (b,), ()), Rule((b,), (e,), (d,))}
        assert set(rules[ids["t8"]]) == want

    def test_entering_rules_match_the_node_by_node_search(self):
        # per node the same rules, in the same (program) order, as the
        # search that scans every rule of an introduce node's atom there;
        # the fuzz programs hold atoms in the head and the body of one rule
        # and atoms introduced below several joins, the last one an
        # atomless rule
        programs = [p for _, p, _ in helpers.projection_fuzz()] + list(helpers.overlap_fuzz())
        programs.append(parse_program(helpers.disjunctive_chain(4, 3)))
        programs.append(Program.from_specs([((), (), ()), (("a",), (), ("b",)), (("b",), (), ("a",))]))
        for p in programs:
            for heuristic, seed in (("min-fill", 0), ("min-degree", 1)):
                td = make_nice(decompose(primal_graph(p), heuristic, seed))
                assert entering_rules(p, td, p.rules) == reference_entering_rules(p, td, p.rules)

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
            origins(ttd, ids["t1"], PhcRow(1, 0, ((0, 0),)))

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
            row_origins = tab.origins
            for i, row in enumerate(tab.rows):
                assert set(row_origins[i]) == definitional_origins(ttd, t, row)

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
    ``DENSE_MAX_WIDTH``, where ``pick_algorithm`` picks the frozenset form.
    The narrow programs of 6-12 atoms branch in their decompositions, so
    join rows of several origin pairs occur."""
    rng = random.Random(6060)
    for _ in range(40):
        p = helpers.random_mixed(rng, rng.randint(6, 12), rng.randint(5, 11))
        nice = make_nice(decompose(primal_graph(p)))
        if classify(p).kind is not ProgramKind.DISJUNCTIVE:
            yield "phc", run_dp(pipeline.pick_algorithm(classify(p), "phc", nice.width), p, nice)
            yield "paper phc", run_dp(helpers.paper_phc(p.n_atoms), p, nice)
        yield "prim bitsets", run_dp(PrimAlgorithm(nice.width), p, nice)
        yield "prim frozensets", run_dp(SparsePrimAlgorithm(), p, nice)
    rng = random.Random(2)
    for _ in range(6):
        p = helpers.random_disjunctive(rng, rng.randint(14, 18), rng.randint(8, 12), max_size=8)
        nice = make_nice(decompose(primal_graph(p)))
        if nice.width > DENSE_MAX_WIDTH:
            alg = pipeline.pick_algorithm(classify(p), "prim", nice.width)
            assert type(alg) is SparsePrimAlgorithm
            yield "prim frozensets, wide", run_dp(alg, p, nice)


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
                row_origins = ttd.table(t).origins
                want = []
                for j in purged.kept[t]:
                    seqs = []
                    for seq in row_origins[j]:
                        at = tuple(bisect_left(purged.kept[c], x) for c, x in zip(children, seq))
                        assert all(purged.kept[c][i] == x for c, i, x in zip(children, at, seq)), (form, t)
                        seqs.append(at)
                    want.append(seqs)
                got = purged_origins(purged, t)
                assert got == want, (form, t)
                assert all(strictly_ascending(seqs) for seqs in got), (form, t)


class TestOriginStore:
    """A row's first origin sits in the node's array, its further ones in
    the side store, keyed by row, which holds no other rows."""

    def test_store_matches_the_decoded_lists(self):
        for form, ttd in origin_fuzz():
            links = 0
            for t in ttd.post_order:
                tab = ttd.table(t)
                seqs = list(tab.origins)
                assert tab.first.typecode == "q" and len(tab.first) == len(tab.rows), (form, t)
                assert {j for j, s in enumerate(seqs) if len(s) > 1} == set(tab.more), (form, t)
                if not tab.more:
                    assert tab.more is NO_MORE, (form, t)
                if ttd.td.nodes[t].kind == "join":
                    assert tab.stride == len(ttd.table(ttd.td.nodes[t].children[1])), (form, t)
                assert list(table_of(tab.rows, seqs).origins) == seqs, (form, t)
                links += sum(map(len, seqs))
            assert ttd.origin_links == links, form
        assert NO_MORE == {}

    def test_view_indexes_like_a_list(self, example1_td):
        _, _, ttd = run_example1(example1_td)
        for tab in ttd.tables:
            seqs = list(tab.origins)
            assert len(tab.origins) == len(seqs) == len(tab)
            assert [tab.origins[j - len(seqs)] for j in range(len(seqs))] == seqs
            with pytest.raises(IndexError):
                tab.origins[len(seqs)]

    def test_bytes_per_row_on_a_disjunctive_chain(self):
        # every object the stores hold, keys and tuples of further origins
        # included: about 30 bytes a row here, where one list of origin
        # tuples per row took about 135
        program = parse_program(helpers.disjunctive_chain(20, 3))
        result = pipeline.solve(program)
        assert result.count == 21**3
        seen: set[int] = set()
        size = sum(helpers.deep_size(tab.first, seen) + helpers.deep_size(tab.more, seen) for tab in result.ttd.tables)
        rows = sum(map(len, result.ttd.tables))
        assert rows > 10_000 and result.ttd.origin_links > rows
        assert size / rows < 40


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

    def test_matches_the_mark_array_purge(self):
        # on the memo fuzz in all four forms, the top-down purge keeps what
        # marking each kept row's origins in its child keeps, and pools equal
        # kept lists into one object.  Kept join rows and kept rows of
        # several origins occur, and so do nodes that share a table with an
        # earlier node but keep other rows, whose children keep other rows
        reached = Counter()
        for form, ttd in memo_fuzz():
            got, want = purge(ttd), reference_purge(ttd)
            assert got.kept == want.kept, form
            assert len({id(keep) for keep in got.kept}) == len(set(got.kept)), form
            below = {}  # per table, the first node's (kept list, children's kept lists)
            for t in ttd.post_order:
                keep, tab, children = got.kept[t], ttd.table(t), ttd.td.nodes[t].children
                if not keep:
                    continue
                reached[form, "join"] += len(children) == 2
                reached[form, "several origins"] += any(j in tab.more for j in keep)
                lists = [got.kept[c] for c in children]
                first_keep, first_lists = below.setdefault(id(tab), (keep, lists))
                reached[form, "one table, other children's lists"] += first_keep != keep and first_lists != lists
        forms = ("phc", "paper phc", "prim bitsets", "prim frozensets")
        assert {key for key, n in reached.items() if n} == {
            (form, what) for form in forms for what in ("join", "several origins", "one table, other children's lists")
        }

    def test_one_solution_row_question(self):
        # whether the program has an answer set has one answer: the solution
        # row at the root (has_solution), the root's kept row, the count
        # under the empty projection and the brute-force oracle agree on
        # every program of the memo fuzz, in every form, both ways.  The
        # empty projection puts all of a node's kept rows in one bucket, so
        # the count is left out where a node keeps more than 20 rows (one
        # paper-PHC solve of 22, which would take 16 s)
        seen, uncounted = set(), 0
        for form, ttd in memo_fuzz():
            purged = purge(ttd)
            consistent = has_solution(ttd)
            assert bool(purged.kept[ttd.td.root]) is consistent, form
            if max(map(len, purged.kept)) <= 20:
                assert final_count(run_proj(purged, 0), purged) == consistent, form
            else:
                uncounted += 1
            assert bool(oracle.enumerate_answer_sets(ttd.program)) is consistent, form
            seen.add((form, classify(ttd.program).kind, consistent))
        assert uncounted <= 1
        kinds = {
            "phc": (ProgramKind.TIGHT, ProgramKind.HEAD_CYCLE_FREE),
            "paper phc": (ProgramKind.TIGHT, ProgramKind.HEAD_CYCLE_FREE),
            "prim bitsets": tuple(ProgramKind),
            "prim frozensets": tuple(ProgramKind),
        }
        assert seen == {(form, kind, c) for form, ks in kinds.items() for kind in ks for c in (False, True)}

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


def memo_fuzz():
    """(form, tabled decomposition) pairs on the projection and overlap fuzz
    programs: the library ``phc`` (with its cyclic components) and the
    paper's full-ordering PHC on the programs that are not disjunctive, and
    both ``prim`` forms on every program, the frozenset form called
    directly on the same narrow decompositions."""
    programs = [p for _, p, _ in helpers.projection_fuzz()] + list(helpers.overlap_fuzz())
    for p in programs:
        nice = make_nice(decompose(primal_graph(p)))
        if classify(p).kind is not ProgramKind.DISJUNCTIVE:
            yield "phc", run_dp(pipeline.pick_algorithm(classify(p), "phc", nice.width), p, nice)
            yield "paper phc", run_dp(helpers.paper_phc(p.n_atoms), p, nice)
        yield "prim bitsets", run_dp(PrimAlgorithm(nice.width), p, nice)
        yield "prim frozensets", run_dp(SparsePrimAlgorithm(), p, nice)


class TestNodeMemo:
    """``run_dp`` builds one table per distinct node key (kind, context, as
    the algorithm's ``context`` states the node's atom, slot and entering
    rules, and child row lists); a node whose key repeats takes the earlier
    table."""

    @staticmethod
    def check_fresh(form, ttd):
        """Every node's table, shared or not, is what node_table builds from
        that node's own child tables, its rows put in first-appearance order
        over the solve and its origins moved with them; a table whose rows
        all appear first at it keeps node_table's emission order as it is.
        One table object per build.  Returns the number of nodes that took
        an earlier node's table."""
        td = ttd.td
        rules = node_rules(ttd)
        number: dict = {}
        for t in ttd.post_order:
            nd = td.nodes[t]
            fresh = node_table(ttd.alg, nd.kind, node_context(ttd, t, rules[t]), [ttd.table(c) for c in nd.children])
            tab = ttd.table(t)
            seen = len(number)
            for row in tab.rows:
                number.setdefault(row, len(number))
            perm = sorted(range(len(fresh.rows)), key=lambda j: number[fresh.rows[j]])
            to = {j: k for k, j in enumerate(perm)}
            assert tab.rows == [fresh.rows[j] for j in perm], (form, t)
            assert list(tab.first) == [fresh.first[j] for j in perm], (form, t)
            assert dict(tab.more) == {to[j]: further for j, further in fresh.more.items()}, (form, t)
            assert (tab.arity, tab.stride) == (fresh.arity, fresh.stride), (form, t)
            if min(map(number.__getitem__, tab.rows), default=seen) >= seen:
                assert tab.rows == fresh.rows and list(tab.first) == list(fresh.first), (form, t)
        assert len({id(tab) for tab in ttd.tables}) == ttd.built_tables <= len(td.nodes), form
        return len(td.nodes) - ttd.built_tables

    def test_shared_tables_equal_a_fresh_build(self):
        shared = Counter()
        for form, ttd in memo_fuzz():
            shared[form] += self.check_fresh(form, ttd)
        assert set(shared) == {"phc", "paper phc", "prim bitsets", "prim frozensets"}
        assert all(shared.values()), shared

    @pytest.mark.parametrize("alg", [PhcAlgorithm({}), PRIM, SparsePrimAlgorithm()], ids=["phc", "prim", "sparse-prim"])
    def test_rules_that_differ_in_their_negative_body_only(self, alg):
        # one branch per component, alike up to the rule entering at b and
        # at d: equal head and positive-body masks, unequal negative bodies
        p = parse_program("a :- not b.\nc :- not d, not c.\n")
        a, b, c, d = map(p.atom_id, "abcd")
        td = TreeDecomposition([frozenset({a, b}), frozenset({c, d}), frozenset()], [(0, 2), (1, 2)])
        ttd = run_dp(alg, p, make_nice(td))
        assert self.check_fresh(alg.name, ttd) > 0

    def test_solves_share_no_table(self):
        # the memo is local to one run_dp call: two live solves of one
        # program hold tables of their own
        p = parse_program(helpers.disjunctive_chain(4, 2))
        first, second = pipeline.solve(p), pipeline.solve(p)
        assert first.stats.built_tables < first.stats.nodes
        assert not {id(tab) for tab in first.ttd.tables} & {id(tab) for tab in second.ttd.tables}


def first_sight(ttd):
    """Each distinct row of a solve numbered in first-appearance order: by
    ascending node id, and in table order within a node."""
    number: dict = {}
    for t in ttd.post_order:
        for row in ttd.table(t).rows:
            number.setdefault(row, len(number))
    return number


class TestRowOrder:
    """Every table holds its rows in first-appearance order over the solve,
    whatever order the algorithm emitted them in, so equal row sets of one
    solve are one row list, which the node memo keys on."""

    @staticmethod
    def check_order(note, ttd, want):
        number = first_sight(ttd)
        for t in ttd.post_order:
            assert strictly_ascending([number[row] for row in ttd.table(t).rows]), (note, t)
        lists = {tuple(map(id, tab.rows)) for tab in ttd.tables}
        assert len(lists) == len({frozenset(tab.rows) for tab in ttd.tables}), note
        purged = purge(ttd)
        assert final_count(run_proj(purged, ttd.program.projection), purged) == want, note

    def test_fuzz_in_every_form(self):
        # both fuzzes yield the forms of one program in a row
        program = want = None
        forms = Counter()
        for form, ttd in chain(memo_fuzz(), origin_fuzz()):
            if ttd.program is not program:
                program, want = ttd.program, oracle.projected_count(ttd.program)
            self.check_order(form, ttd, want)
            forms[form] += 1
        assert set(forms) == {"phc", "paper phc", "prim bitsets", "prim frozensets", "prim frozensets, wide"}

    def test_disjunctive_workload(self, monkeypatch):
        # the bench's disj text: emission orders there repeat one row set in
        # many orders, which first-appearance order makes one list
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import workloads

        w = workloads.WORKLOADS["disj"]
        result = pipeline.solve(parse_program(workloads.workload_text(w, 1)), seed=w.td_seed)
        self.check_order("disj", result.ttd, w.expected())
        assert result.count == w.expected()


# the disjunctive chain less its q_i :- p_i rules: a tight program whose
# decomposition has joins, with rules of the atoms in a join's bag entering
# at one introduce node in each branch below it
BRANCHED_CHAIN = "".join(line for line in helpers.disjunctive_chain(3, 2).splitlines(True) if line[0] != "q")


class TestRuleForms:
    """Each table form translates a rule once per solve, by its ``rule``,
    and its ``context`` bundles the entering rules' forms as they are."""

    def test_contexts_match_the_node_by_node_translation(self):
        # at every introduce and remove node of the memo fuzz, in all four
        # forms, the context equals the one translated at that node from
        # its entering program rules; the library phc also meets cyclic
        # head atoms whose positive body leaves their component
        nodes, outside = Counter(), 0
        for form, ttd in memo_fuzz():
            alg, td, slots = ttd.alg, ttd.td, ttd.slots
            forms, rules = node_rules(ttd), entering_rules(ttd.program, td, ttd.program.rules)
            for t, nd in enumerate(td.nodes):
                if nd.kind in (INTRODUCE, REMOVE):
                    want = reference_context(alg, nd.atom, rules[t], nd.bag, slots)
                    assert alg.context(nd.atom, forms[t], nd.bag, slots) == want, (form, t)
                    nodes[form] += 1
            if form == "phc":
                comp = alg.components
                outside += sum(
                    a in comp and any(comp.get(b) != comp[a] for b in r.pos_body)
                    for r in ttd.program.rules
                    for a in r.head
                )
        assert set(nodes) == {"phc", "paper phc", "prim bitsets", "prim frozensets"}
        assert outside

    @pytest.mark.parametrize(
        "form",
        [
            lambda p, width: pipeline.pick_algorithm(classify(p), "phc", width),
            lambda p, width: helpers.paper_phc(p.n_atoms),
            lambda p, width: PrimAlgorithm(width),
            lambda p, width: SparsePrimAlgorithm(),
        ],
        ids=["phc", "paper-phc", "prim", "sparse-prim"],
    )
    def test_a_solve_translates_each_rule_once(self, form):
        p = parse_program(BRANCHED_CHAIN)
        nice = make_nice(decompose(primal_graph(p)))
        entering = entering_rules(p, nice, p.rules)
        per_rule = Counter(r for t, nd in enumerate(nice.nodes) if nd.kind == INTRODUCE for r in entering[t])
        assert max(per_rule.values()) > 1
        alg = form(p, nice.width)
        translate, calls = alg.rule, []

        def counting(r, slots):
            calls.append(r)
            return translate(r, slots)

        alg.rule = counting
        run_dp(alg, p, nice)
        # one call per program rule, in program order
        assert calls == list(p.rules)


# every table form the engine runs: the paper's PHC, and what
# pick_algorithm hands back for phc and prim on each side of DENSE_MAX_WIDTH
TABLE_FORMS = [
    helpers.paper_phc(8),
    *(
        pipeline.pick_algorithm(classify(parse_program("a.")), requested, w)
        for requested in ("phc", "prim")
        for w in (0, 3, DENSE_MAX_WIDTH, DENSE_MAX_WIDTH + 1)
    ),
]


class TestTableContract:
    """The table algorithms' side of the node memo: each states a node's
    inputs once, as its ``context``, and a solve never changes it."""

    @pytest.mark.parametrize("name", ["rule", "context", "introduce", "remove", "join"])
    def test_forms_take_the_protocol_parameters(self, name):
        want = list(inspect.signature(getattr(TableAlgorithm, name)).parameters)[1:]  # less self
        for alg in TABLE_FORMS:
            assert list(inspect.signature(getattr(alg, name)).parameters) == want, (type(alg).__name__, name)

    def test_no_form_keys_nodes_apart_from_its_context(self):
        for alg in TABLE_FORMS:
            assert not hasattr(alg, "node_key") and not hasattr(type(alg), "node_key"), type(alg).__name__

    @pytest.mark.parametrize(
        "form, text",
        [
            (lambda p, width: pipeline.pick_algorithm(classify(p), "auto", width), helpers.WIDE_HCF_TEXT),
            (lambda p, width: helpers.paper_phc(8), helpers.EXAMPLE1_TEXT),
            (lambda p, width: pipeline.pick_algorithm(classify(p), "prim", width), helpers.HEAD_CYCLE_TEXT),
            (lambda p, width: SparsePrimAlgorithm(), helpers.disjunctive_chain(3, 2)),
        ],
        ids=["phc", "paper-phc", "prim", "sparse-prim"],
    )
    def test_a_solve_leaves_the_algorithm_unchanged(self, form, text):
        # the object run_dp runs, compared attribute by attribute before
        # and after two solves
        p = parse_program(text)
        nice = make_nice(decompose(primal_graph(p)))
        alg = form(p, nice.width)
        before = copy.deepcopy(vars(alg))
        for _ in range(2):
            assert run_dp(alg, p, nice).alg is alg
        assert vars(alg) == before
