import dataclasses
import math
import random
from array import array
from collections import Counter

import helpers
import pytest
from paspc import oracle, pipeline
from paspc.cli import purged_origins
from paspc.decomposition import JOIN, LEAF, decompose, make_nice, primal_graph
from paspc.engine import NodeTable, PurgedTables, purge, run_dp
from paspc.formats import parse_program
from paspc.phc import PhcRow
from paspc.prim import PrimAlgorithm
from paspc.proj import (
    _JOIN,
    _UNION,
    NodeCounts,
    _bucket_counts,
    _bucket_reads,
    _bucket_values,
    _evaluate,
    _plan,
    _venn_regions,
    buckets,
    final_count,
    run_proj,
)
from reference import bucket_members, ipmc, pcnt, reference_proj_table, sipmc, subbuckets, table_of, union_counts

# the paper's full-ordering PHC; the programs below have at most 8 atoms
PHC = helpers.paper_phc(8)


class TestBuckets:
    def test_empty_projection_single_bucket(self):
        assert buckets([0b01, 0b10, 0b11], 0) == [[0, 1, 2]]

    def test_full_projection_distinct_interps(self):
        assert buckets([0b01, 0b10, 0b11], 0b11) == [[0], [1], [2]]

    def test_grouping_by_projected_part(self):
        # projection keeps only the low bit
        assert buckets([0b00, 0b10, 0b01, 0b11], 0b01) == [[0, 1], [2, 3]]


class TestSubbuckets:
    def test_one_bucket_all_nonempty_subsets(self):
        got = subbuckets([0b00, 0b10], 0b01)  # both project to 0
        assert set(got) == {frozenset({0}), frozenset({1}), frozenset({0, 1})}

    def test_two_singleton_buckets(self):
        got = subbuckets([0b00, 0b01], 0b01)
        assert set(got) == {frozenset({0}), frozenset({1})}

    def test_empty_table(self):
        assert subbuckets([], 0b1) == []


class TestSipmc:
    def test_lookup_and_absent_key(self):
        table = {frozenset({0}): 1, frozenset({0, 1}): 1}
        assert sipmc(table, frozenset({0})) == 1
        assert sipmc(table, frozenset({0, 1})) == 1
        assert sipmc(table, frozenset({1, 2})) == 0


class TestPinnedTableValues:
    """The worked single-child table: two rows in one bucket whose three
    entries all store one, feeding a removal node with unit counts."""

    child_pi = {frozenset({0}): 1, frozenset({1}): 1, frozenset({0, 1}): 1}
    child_buckets = {0: 0, 1: 0}

    def test_intro_node_table_retains_all_ones(self):
        rows = [PhcRow(0, 0, ()), PhcRow(1, 0, ((0, 0),))]
        # both rows originate from the single child row of a leaf-fed chain
        origins = [[(0,)], [(0,)]]
        leaf_pi = {frozenset({0}): 1}
        got = reference_proj_table(
            "int", rows, PHC.interp, 0b10, origins, [leaf_pi], [{0: 0}]
        )
        assert got == self.child_pi

    def test_pcnt_singleton(self):
        assert pcnt({(0,)}, [self.child_pi], [self.child_buckets]) == 1

    def test_pcnt_pair_inclusion_exclusion(self):
        assert pcnt({(0,), (1,)}, [self.child_pi], [self.child_buckets]) == 1 + 1 - 1

    def test_ipmc_absolute_value_of_negative_inner_sum(self):
        # |2 - 2 - 1| = 1: the pair of rows shares one projected answer set
        child_pi = {
            frozenset({0}): 1,
            frozenset({1}): 1,
            frozenset({0, 1}): 1,
            frozenset({2}): 1,
            frozenset({3}): 1,
        }
        child_buckets = {0: 0, 1: 0, 2: 1, 3: 2}
        smaller = {}
        smaller[frozenset({0})] = ipmc(
            "rem", frozenset({0}), {(0,), (2,)}, [child_pi], [child_buckets], smaller
        )
        smaller[frozenset({1})] = ipmc(
            "rem", frozenset({1}), {(1,)}, [child_pi], [child_buckets], smaller
        )
        assert smaller[frozenset({0})] == 2
        assert smaller[frozenset({1})] == 1
        got = ipmc(
            "rem",
            frozenset({0, 1}),
            {(0,), (2,), (1,)},
            [child_pi],
            [child_buckets],
            smaller,
        )
        assert got == abs(2 - 2 - 1) == 1

    def test_ipmc_leaf_is_one(self):
        assert ipmc("leaf", frozenset({0}), set(), [], [], {}) == 1

    def test_ipmc_singleton_equals_pcnt(self):
        assert ipmc(
            "rem", frozenset({0}), {(0,)}, [self.child_pi], [self.child_buckets], {}
        ) == pcnt({(0,)}, [self.child_pi], [self.child_buckets])


class TestBucketValues:
    def test_inverts_union_counts(self):
        # genuine set families (bitmasks over 20 elements, with a shared part
        # so that wide intersections are not all empty) up to 13 rows
        rng = random.Random(13)
        for b in range(1, 14):
            for _ in range(2 if b > 10 else 6):
                common = rng.getrandbits(20) & rng.getrandbits(20)
                sets = [rng.getrandbits(20) & rng.getrandbits(20) | common for _ in range(b)]
                ors = [0] * (1 << b)
                for m in range(1, 1 << b):
                    low = m & -m
                    ors[m] = ors[m ^ low] | sets[low.bit_length() - 1]
                pcnts = [x.bit_count() for x in ors]
                assert union_counts(_bucket_values(pcnts), b) == pcnts


def family_counts(bucket_sets):
    """A child's NodeCounts from explicit projected answer-set sets, bucket
    by bucket: ``pcnts`` are the union sizes of each row subset."""
    node = NodeCounts([], [], [])
    for b, sets in enumerate(bucket_sets):
        node.bucket_of += [b] * len(sets)
        node.pos_in_bucket += range(len(sets))
        picks = [[s for p, s in enumerate(sets) if m >> p & 1] for m in range(1 << len(sets))]
        node.pcnts.append([len(set().union(*ss)) for ss in picks])
    return node


def bucket_pcnts(rows, tab, children):
    """One bucket's projected counts: its reads, evaluated against its
    children's count arrays."""
    return _bucket_counts(_bucket_reads(rows, tab, children), children[0].pcnts, children[-1].pcnts, {})


def origin_table(row_origins):
    """A table known only by its rows' origins, as lists of child-index tuples."""
    return table_of([None] * len(row_origins), row_origins)


def tagged(bucket_sets):
    """Sets of different buckets stand for different projected answer sets."""
    return [[{(b, x) for x in s} for s in sets] for b, sets in enumerate(bucket_sets)]


class TestOneChildUnion:
    """A one-child node's projected counts against the enumerated union of
    its rows' origin sets."""

    @staticmethod
    def check(child, row_origins):
        child = tagged(child)
        sets = [s for bucket in child for s in bucket]
        out = bucket_pcnts(list(range(len(row_origins))), origin_table(row_origins), [family_counts(child)])
        for m in range(1, 1 << len(row_origins)):
            js = {j for u, seqs in enumerate(row_origins) if m >> u & 1 for (j,) in seqs}
            assert out[m] == len(set().union(*(sets[j] for j in js))), (m, js)

    def test_one_child_bucket(self):
        # the introduce shape: every origin in one child bucket
        child = [[{1, 2}, {2, 3}, {4}, {1, 2, 3, 4, 5}]]
        self.check(child, [[(0,), (2,)], [(1,)], [(0,), (1,), (3,)], [(2,)]])

    def test_two_child_buckets(self):
        # the remove shape: a projected atom removed, its two child buckets
        # merge, and a row's origins may lie in either or both; the first
        # origin read may be in the second bucket
        child = [[{1}, {1, 2}, {3}], [{1, 2}, {5}]]
        self.check(child, [[(0,), (3,)], [(1,), (2,)], [(4,)], [(2,), (3,), (4,)]])
        self.check(child, [[(4,)], [(0,), (3,)], [(1,)]])

    def test_random_families(self):
        # three child buckets; each one-child bucket reads one or two of them
        rng = random.Random(23)
        for _ in range(40):
            child = [[set(rng.sample(range(6), rng.randint(1, 4))) for _ in range(rng.randint(1, 4))] for _ in range(3)]
            starts = [sum(map(len, child[:b])) for b in range(3)]
            ids = [j for b in rng.sample(range(3), rng.randint(1, 2)) for j in range(starts[b], starts[b] + len(child[b]))]
            rows = [sorted({(rng.choice(ids),) for _ in range(rng.randint(1, 4))}) for _ in range(rng.randint(1, 5))]
            self.check(child, rows)

    def test_origins_in_a_third_child_bucket_rejected(self):
        # a one-child row keeps its child's projected interpretation up to
        # the removed atom, so a third child bucket means corrupt tables
        child = family_counts(tagged([[{1}], [{2}], [{3}]]))
        for rows in ([[(0,), (1,), (2,)]], [[(0,)], [(1,)], [(2,)]], [[(2,), (0,)], [(1,)]]):
            with pytest.raises(ValueError):
                bucket_pcnts(list(range(len(rows))), origin_table(rows), [child])


class TestTwoChildUnion:
    """The join's projected counts against the enumerated |U A_i x B_j|."""

    @staticmethod
    def check(left, right, row_pairs):
        left, right = tagged(left), tagged(right)
        a = [s for sets in left for s in sets]
        b = [s for sets in right for s in sets]
        out = bucket_pcnts(
            list(range(len(row_pairs))), origin_table(row_pairs), [family_counts(left), family_counts(right)]
        )
        for m in range(1, 1 << len(row_pairs)):
            pairs = {pair for u, seqs in enumerate(row_pairs) if m >> u & 1 for pair in seqs}
            assert out[m] == len({(x, y) for i, j in pairs for x in a[i] for y in b[j]}), (m, pairs)

    def test_full_five_by_five_signature(self):
        # 25 pairs in one bucket pair, all of them read by the full row set
        rng = random.Random(5)
        left = [[set(rng.sample(range(8), rng.randint(1, 6))) for _ in range(5)]]
        right = [[set(rng.sample(range(9), rng.randint(1, 6))) for _ in range(5)]]
        pairs = [(i, j) for i in range(5) for j in range(5)]
        rng.shuffle(pairs)
        self.check(left, right, [sorted(pairs[u::6]) for u in range(6)])

    def test_identical_sets(self):
        left = [[{1, 2, 3}] * 4]
        right = [[{7, 8}] * 3]
        self.check(left, right, [[(0, 0), (1, 2)], [(2, 1)], [(3, 0), (3, 2)], [(1, 1)]])

    def test_disjoint_sets(self):
        left = [[{1}, {2, 3}, {4, 5, 6}]]
        right = [[{1, 2}, {3}, {4}, {5, 6, 7}]]
        self.check(left, right, [[(0, 3), (1, 0)], [(2, 2)], [(1, 1), (2, 3)], [(0, 0)]])

    def test_empty_venn_regions(self):
        # nested and overlapping sets leave most regions empty
        left = [[{1}, {1, 2}, {1, 2, 3}, {2, 3}]]
        right = [[{5}, {5, 6}, {6, 7, 8}]]
        self.check(left, right, [[(0, 2), (3, 0)], [(1, 1), (2, 0)], [(2, 2), (3, 1)], [(0, 0), (1, 2)]])

    def test_random_families_several_bucket_pairs(self):
        # two buckets per child; each join bucket reads one pair of them
        rng = random.Random(11)
        for _ in range(30):
            left, right = (
                [[set(rng.sample(range(6), rng.randint(1, 4))) for _ in range(rng.randint(1, 4))] for _ in range(2)]
                for _ in range(2)
            )
            b1, b2 = rng.randrange(2), rng.randrange(2)
            ids1 = range(len(left[0]) * b1, len(left[0]) * b1 + len(left[b1]))
            ids2 = range(len(right[0]) * b2, len(right[0]) * b2 + len(right[b2]))
            rows = [
                sorted({(rng.choice(ids1), rng.choice(ids2)) for _ in range(rng.randint(1, 4))})
                for _ in range(rng.randint(1, 5))
            ]
            self.check(left, right, rows)

    def test_origins_outside_the_bucket_pair_rejected(self):
        # a join row keeps its children's interpretation, so origins in a
        # second child bucket pair mean corrupt tables
        left, right = [[{1}], [{2}]], [[{3}]]
        for rows in ([[(0, 0), (1, 0)]], [[(0, 0)], [(1, 0)]]):
            with pytest.raises(ValueError):
                bucket_pcnts(list(range(len(rows))), origin_table(rows), [family_counts(left), family_counts(right)])


class TestVennRegions:
    """A join's left-bucket Venn regions, derived from the bucket's union
    counts, against the regions counted from the explicit set family."""

    @staticmethod
    def check(sets, stride):
        got = {}
        for e, shifts in _venn_regions(family_counts([sets]).pcnts[0], len(sets), stride):
            assert [s % stride for s in shifts] == [0] * len(shifts)
            got[frozenset(s // stride for s in shifts)] = e
        want = Counter(frozenset(i for i, s in enumerate(sets) if x in s) for x in set().union(*sets))
        assert got == dict(want), sets

    def test_explicit_families(self):
        for sets in (
            [{1, 2, 3}] * 4,  # identical: one region
            [{1}, {2, 3}, {4, 5, 6}],  # disjoint: one region per set
            [{1}, {1, 2}, {1, 2, 3}, {2, 3}],  # nested and overlapping: most regions empty
            [{1, 2}, set(), {2, 5}],  # an empty set lies in no region
            [{7}],
        ):
            for stride in (1, 3):
                self.check(sets, stride)

    def test_random_families(self):
        rng = random.Random(17)
        for _ in range(60):
            self.check([set(rng.sample(range(8), rng.randint(1, 6))) for _ in range(rng.randint(1, 6))], rng.randint(1, 5))


def tight_chain(blocks, k):
    """A tight program of ``blocks`` blocks with k choice columns each; a
    column's x atoms are chained block to block and every x_i_j implies p_i.
    Each column picks the block where x starts to hold, or none, so it has
    (blocks + 1)^k answer sets and blocks + 1 distinct projections onto the
    p_i.  Rule order fixes the atom ids and so the decomposition."""
    lines = []
    for i in range(blocks):
        for j in range(k):
            lines += [f"x{i}_{j} :- not y{i}_{j}.", f"y{i}_{j} :- not x{i}_{j}."]
            if i:
                lines.append(f"x{i}_{j} :- x{i - 1}_{j}.")
            lines.append(f"p{i} :- x{i}_{j}.")
        lines.append(f"q{i} :- p{i}.")
    return parse_program("\n".join(lines))


def assert_matches_reference(pmask, purged, proj):
    """Every node's entries equal the defining recursion's."""
    ttd = purged.ttd
    for t in ttd.post_order:
        nd = ttd.td.nodes[t]
        want = reference_proj_table(
            nd.kind,
            purged.rows[t],
            lambda row: ttd.decode(t, ttd.alg.interp(row)),
            pmask,
            purged_origins(purged, t),
            [proj.tables[c] for c in nd.children],
            [[proj.nodes[c].bucket_of[j] for j in purged.kept[c]] for c in nd.children],
        )
        assert proj.tables[t] == want, t


class TestRunProj:
    def test_example1_counts(self, example1_td):
        program, ntd, ids = example1_td
        for pmask, want in ((program.projection, 3), (program.atom_mask, 4), (0, 1)):
            ttd = run_dp(PHC, program, ntd)
            purged = purge(ttd)
            proj = run_proj(purged, pmask)
            assert final_count(proj, purged) == want

    def test_tight_chain_width_six(self):
        # join buckets here read up to 28 origin pairs (7 x 4 child rows),
        # too many for an inclusion-exclusion over the pairs' subsets
        p = tight_chain(6, 6)
        r = pipeline.solve(p)
        assert (p.n_atoms, r.stats.width, r.count) == (84, 6, 7**6)
        # the blocks repeat, and so do the inputs of most of their nodes
        assert r.stats.built_tables < r.stats.nodes
        assert pipeline.solve(p.with_projection(p.mask([f"p{i}" for i in range(6)]))).count == 7

    def test_tight_chain_joins_one_row_buckets(self):
        # joins of two one-row buckets whose union counts are both >= 2: a
        # sum c1 + c2 - 1 in place of the product c1 * c2 gives 46 here
        p = tight_chain(3, 3)
        assert p.n_atoms == 24
        assert oracle.projected_count(p) == 4**3
        for algorithm in ("auto", "prim"):
            r = pipeline.solve(p, algorithm=algorithm)
            assert r.count == 4**3
            factors = []  # per such join bucket, the smaller child count
            for t in r.ttd.post_order:
                nd = r.ttd.td.nodes[t]
                if nd.kind != JOIN:
                    continue
                children = [r.proj_tables.nodes[c] for c in nd.children]
                origins = r.ttd.table(t).origins
                for b in bucket_members(r.proj_tables.nodes[t], r.purged.kept[t]):
                    row_origins = origins[r.purged.kept[t][b[0]]]
                    if len(b) == 1 and len(row_origins) == 1:
                        cbs = [c.bucket_of[i] for c, i in zip(children, row_origins[0])]
                        if all(len(c.pcnts[cb]) == 2 for c, cb in zip(children, cbs)):
                            factors.append(min(c.pcnts[cb][1] for c, cb in zip(children, cbs)))
            assert max(factors) >= 2

    def test_empty_tables_give_zero(self):
        from paspc.program import Program

        p = Program.from_specs([(("a",), (), ("a",))])
        ttd = run_dp(PHC, p, make_nice(decompose(primal_graph(p))))
        purged = purge(ttd)
        proj = run_proj(purged, p.projection)
        assert all(t == {} for t in proj.tables)
        assert final_count(proj, purged) == 0

    @staticmethod
    def seeded_fuzz():
        """The seeded projection fuzz (``helpers.projection_fuzz``) through
        the table pass, purge and the projection pass."""
        for prim, p, pmask in helpers.projection_fuzz():
            nice = make_nice(decompose(primal_graph(p)))
            alg = PrimAlgorithm(nice.width) if prim else helpers.paper_phc(max(p.n_atoms, 8))
            ttd = run_dp(alg, p, nice)
            purged = purge(ttd)
            yield alg, pmask, ttd, purged, run_proj(purged, pmask)

    def test_fuzz_reaches_multi_row_join_buckets(self):
        # the two-child path is exercised under both algorithms
        reached = set()
        for alg, _, ttd, purged, proj in self.seeded_fuzz():
            for t in ttd.post_order:
                members = bucket_members(proj.nodes[t], purged.kept[t])
                if ttd.td.nodes[t].kind == JOIN and any(len(b) > 1 for b in members):
                    reached.add(isinstance(alg, PrimAlgorithm))
        assert reached == {False, True}

    def test_bucket_members_are_the_partition(self):
        # a node keeps each kept row's bucket and bit, not the partition:
        # the members rebuilt from them are the buckets of the kept rows'
        # projected interpretations, each in ascending order
        for _, pmask, ttd, purged, proj in self.seeded_fuzz():
            for t in ttd.post_order:
                smask = sum(1 << ttd.slots[a] for a in ttd.td.nodes[t].bag if pmask >> a & 1)
                partition = buckets(map(ttd.alg.interp, purged.rows[t]), smask)
                assert bucket_members(proj.nodes[t], purged.kept[t]) == partition, t

    def test_fuzz_reaches_every_bucket_path(self, monkeypatch):
        # each node shape is planned once: _plan runs for the first node of
        # each key (its table, kept list and slot mask, and its first
        # child's slot mask), and the nodes after it share its bucket_of and
        # pos_in_bucket.  Every node evaluates each bucket once: a one-row
        # bucket whose row has one origin holds the product of the origin's
        # singleton counts over the node's children (an empty product at a
        # leaf), and below one child takes the child bucket's own array when
        # that bucket has one row; every other bucket is one _bucket_counts
        # call, whether its node planned or not, made by the node's one
        # _evaluate call
        planned = []
        evaluated = []
        evaluations = 0

        def plan(t, *args):
            planned.append(t)
            return _plan(t, *args)

        def evaluate(t, *args):
            evaluated.append(t)
            return _evaluate(t, *args)

        def counts(*args):
            nonlocal evaluations
            evaluations += 1
            return _bucket_counts(*args)

        monkeypatch.setattr("paspc.proj._plan", plan)
        monkeypatch.setattr("paspc.proj._evaluate", evaluate)
        monkeypatch.setattr("paspc.proj._bucket_counts", counts)
        reached = Counter()
        for _, pmask, ttd, purged, got in self.seeded_fuzz():
            smasks, first_of = {}, {}
            want = 0
            for t in ttd.post_order:
                nd = ttd.td.nodes[t]
                smasks[t] = smask = sum(1 << ttd.slots[a] for a in nd.bag if pmask >> a & 1)
                child_smask = smasks[nd.children[0]] if nd.children else 0
                first = first_of.setdefault((id(ttd.tables[t]), id(purged.kept[t]), smask, child_smask), t)
                assert got.nodes[t].bucket_of is got.nodes[first].bucket_of
                assert got.nodes[t].pos_in_bucket is got.nodes[first].pos_in_bucket
                tab = ttd.table(t)
                origins = tab.origins
                children = [got.nodes[c] for c in nd.children]
                shape = ("leaf", "one child", "join")[len(children)]
                for b, pcnts in zip(bucket_members(got.nodes[t], purged.kept[t]), got.nodes[t].pcnts):
                    rows = [purged.kept[t][u] for u in b]
                    seqs = [seq for j in rows for seq in origins[j]]
                    want += 1
                    if len(seqs) == 1:
                        reached[f"{shape}, one row of one origin"] += 1
                        reads = [(c.pcnts[c.bucket_of[i]], c.pos_in_bucket[i]) for c, i in zip(children, seqs[0])]
                        assert list(pcnts) == [0, math.prod(pc[1 << pos] for pc, pos in reads)]
                        if len(children) == 1 and len(reads[0][0]) == 2:
                            assert pcnts is reads[0][0]
                            want -= 1
                        if any(pc[1 << pos] != pc[1] for pc, pos in reads):
                            # the origin's count differs from that of its
                            # child bucket's first row
                            reached[f"{shape}, one origin of another count than its bucket's first"] += 1
                        continue
                    if any(len(origins[j]) > 1 for j in rows):
                        reached[f"{shape}, a row of several origins"] += 1
                    if len(children) == 1 and len({children[0].bucket_of[i] for (i,) in seqs}) == 2:
                        reached["one child, two child buckets"] += 1
            assert planned == list(first_of.values())
            assert got.plans == len(planned) == len({id(node.bucket_of) for node in got.nodes})
            assert evaluations == want
            assert evaluated == list(ttd.post_order)
            planned.clear()
            evaluated.clear()
            evaluations = 0
        assert set(reached) >= {
            "leaf, one row of one origin",
            "one child, one row of one origin",
            "one child, one origin of another count than its bucket's first",
            "join, one row of one origin",
            "one child, a row of several origins",
            "one child, two child buckets",
            "join, a row of several origins",
        }

    @staticmethod
    def failing_counts(monkeypatch, fails):
        """Patch ``_bucket_counts`` to raise ``MemoryError`` on the reads
        ``fails(t, reads)`` picks, t being the node that ``_evaluate`` is
        evaluating."""
        evaluating = None

        def evaluate(t, *args):
            nonlocal evaluating
            evaluating = t
            return _evaluate(t, *args)

        def counts(reads, *args):
            if fails(evaluating, reads):
                raise MemoryError
            return _bucket_counts(reads, *args)

        monkeypatch.setattr("paspc.proj._evaluate", evaluate)
        monkeypatch.setattr("paspc.proj._bucket_counts", counts)

    def test_memory_error_names_a_planning_nodes_one_row_bucket(self, monkeypatch):
        # the first node is a leaf, which plans, and its one bucket reads
        # one row
        p = parse_program("a | b. c :- a. c :- b. #project c.")
        ttd = pipeline.solve(p).ttd
        t = ttd.post_order[0]
        assert ttd.td.nodes[t].kind == LEAF
        self.failing_counts(monkeypatch, lambda t, reads: True)
        with pytest.raises(MemoryError) as exc:
            pipeline.solve(p)
        assert str(exc.value) == f"node {t} (leaf): bucket of 1 rows, 1 entries"

    def test_memory_error_names_a_memo_hits_bucket_of_several_rows(self, monkeypatch):
        # tight_chain(2, 2) onto the p_i: an introduce node shares an earlier
        # node's plan and has a bucket of two rows
        p = tight_chain(2, 2)
        p = p.with_projection(p.mask(["p0", "p1"]))
        r = pipeline.solve(p)
        seen = set()  # the plans met, by their bucket_of
        for hit in r.ttd.post_order:
            node = r.proj_tables.nodes[hit]
            sizes = [len(pcnts) for pcnts in node.pcnts if len(pcnts) > 2]
            if sizes and id(node.bucket_of) in seen:
                break
            seen.add(id(node.bucket_of))
        else:
            pytest.fail("no memo hit with a bucket of several rows")
        assert sizes[0] == 1 << 2
        planned = []

        def plan(t, *args):
            planned.append(t)
            return _plan(t, *args)

        monkeypatch.setattr("paspc.proj._plan", plan)
        self.failing_counts(monkeypatch, lambda t, reads: t == hit and reads[0] in (_UNION, _JOIN))
        with pytest.raises(MemoryError) as exc:
            pipeline.solve(p)
        assert hit not in planned
        assert str(exc.value) == f"node {hit} ({r.ttd.td.nodes[hit].kind}): bucket of 2 rows, 3 entries"

    def test_matches_reference_formulas(self):
        # the bucket-wise evaluation must agree with the defining recursion
        for _, pmask, ttd, purged, proj in self.seeded_fuzz():
            assert_matches_reference(pmask, purged, proj)

    def test_reads_only_kept_rows(self):
        # purged rows and their origins stay in the DP tables, and the pass
        # reads the kept rows there too; it must never read the purged ones,
        # whatever its tables or the count: neither their rows, nor their
        # first origins, nor their further ones
        class Unread:
            def fail(self, *args):
                raise AssertionError("a purged row was read")

            __getattr__ = __getitem__ = __iter__ = __len__ = __bool__ = __index__ = __and__ = __hash__ = fail

        unread = 0
        for _, pmask, ttd, purged, proj in self.seeded_fuzz():
            tables = []
            for t, tab in enumerate(ttd.tables):
                keep = set(purged.kept[t])
                unread += len(tab) - len(keep)
                tables.append(
                    NodeTable(
                        [r if j in keep else Unread() for j, r in enumerate(tab.rows)],
                        [o if j in keep else Unread() for j, o in enumerate(tab.first)],
                        {j: seq if j in keep else Unread() for j, seq in tab.more.items()},
                        tab.arity,
                        tab.stride,
                    )
                )
            masked = PurgedTables(dataclasses.replace(ttd, tables=tables), purged.kept)
            got = run_proj(masked, pmask)
            assert got.tables == proj.tables
            assert final_count(got, masked) == final_count(proj, purged)
        assert unread > 1000  # purge drops most rows of these tables: 9,218 of 11,760

    def test_memoized_ipmc_equals_naive_recursion(self):
        # recompute small sub-buckets with a memo-free recursion
        from itertools import combinations

        def naive_ipmc(kind, rho, row_origins, child_tables, child_buckets):
            if kind == "leaf":
                return 1
            seqs = set()
            for j in rho:
                seqs.update(row_origins[j])
            value = pcnt(seqs, child_tables, child_buckets)
            for size in range(1, len(rho)):
                for sub in combinations(sorted(rho), size):
                    sgn = -1 if size % 2 else 1
                    value += sgn * naive_ipmc(kind, frozenset(sub), row_origins, child_tables, child_buckets)
            return abs(value)

        rng = random.Random(515)
        for _ in range(20):
            p = helpers.random_mixed(rng, rng.randint(1, 6), rng.randint(1, 8))
            pmask = helpers.random_projection(rng, p)
            ttd = run_dp(PHC, p, make_nice(decompose(primal_graph(p))))
            purged = purge(ttd)
            proj = run_proj(purged, pmask)
            for t in ttd.post_order:
                nd = ttd.td.nodes[t]
                child_tables = [proj.tables[c] for c in nd.children]
                child_buckets = [[proj.nodes[c].bucket_of[j] for j in purged.kept[c]] for c in nd.children]
                row_origins = purged_origins(purged, t)
                for rho, stored in proj.tables[t].items():
                    if len(rho) > 4:
                        continue
                    assert stored == naive_ipmc(
                        nd.kind, rho, row_origins, child_tables, child_buckets
                    )

    def test_counts_nonnegative_and_singletons_positive(self):
        rng = random.Random(10101)
        for _ in range(60):
            p = helpers.random_mixed(rng, rng.randint(1, 7), rng.randint(1, 9))
            pmask = helpers.random_projection(rng, p)
            nice = make_nice(decompose(primal_graph(p)))
            ttd = run_dp(PHC if _ % 2 else PrimAlgorithm(nice.width), p, nice)
            purged = purge(ttd)
            proj = run_proj(purged, pmask)
            for table in proj.tables:
                for key, value in table.items():
                    assert value >= 0
                    if len(key) == 1:
                        assert value >= 1

    def test_proj_table_size_bound(self):
        rng = random.Random(321)
        for _ in range(40):
            p = helpers.random_mixed(rng, rng.randint(1, 7), rng.randint(1, 9))
            pmask = helpers.random_projection(rng, p)
            ttd = run_dp(PHC, p, make_nice(decompose(primal_graph(p))))
            purged = purge(ttd)
            proj = run_proj(purged, pmask)
            for t in ttd.post_order:
                assert len(proj.tables[t]) <= 2 ** len(purged.rows[t])

    def test_count_bounded_by_projection_space(self):
        rng = random.Random(777)
        for _ in range(40):
            p = helpers.random_mixed(rng, rng.randint(1, 6), rng.randint(1, 8))
            pmask = helpers.random_projection(rng, p)
            r = pipeline.solve(p.with_projection(pmask))
            assert r.count <= 2 ** bin(pmask).count("1")
            assert r.count == oracle.projected_count(p, pmask)


class TestPlanKeys:
    """A node is planned once per shape: its table object, its kept list, its
    projected slot mask and its first child's slot mask (0 at a leaf).  A
    node that differs from an earlier one in any of them plans anew.  The
    children's tables and kept lists are not in the key: a shared table has
    equal child row lists, the kept lists follow from the node's, and only
    at a remove node does the child's slot mask say more than the node's,
    namely whether the removed atom is projected."""

    # two equal blocks of guesses, the second also implied by the first at
    # b, projected onto the second: the blocks' nodes share tables and kept
    # lists, but not projected slots, nor, above them, child slot masks
    TWO_BLOCKS = "a0 | na0. b0 | nb0. a1 | na1. b1 | nb1.\nb1 :- b0.\n#project a1, b1.\n"

    @pytest.mark.parametrize("algorithm", ("auto", "prim"))
    def test_equal_blocks_projected_on_one(self, algorithm):
        p = parse_program(self.TWO_BLOCKS)
        assert oracle.projected_count(p) == 4
        r = pipeline.solve(p, algorithm=algorithm)
        assert r.count == 4
        assert r.stats.built_tables < r.stats.nodes
        assert_matches_reference(p.projection, r.purged, r.proj_tables)

    @pytest.mark.parametrize("algorithm", ("auto", "prim"))
    def test_tight_chain_projected_on_its_last_block(self, algorithm):
        # tight_chain(2, 2) onto p1: both blocks of p1 false or true
        p = tight_chain(2, 2)
        p = p.with_projection(p.mask(["p1"]))
        assert oracle.projected_count(p) == 2
        r = pipeline.solve(p, algorithm=algorithm)
        assert r.count == 2
        assert_matches_reference(p.projection, r.purged, r.proj_tables)

    def test_plan_follows_the_table_not_its_rows(self):
        # a node that shares an earlier node's plan, with a later node of
        # its table too (so the plan stays in the memo), gets a table of the
        # same rows list with the origins of two one-row buckets of
        # different counts swapped: the earlier plan would read the old ones
        result = pipeline.solve(parse_program(helpers.disjunctive_chain(8, 2)))
        ttd, purged, nodes = result.ttd, result.purged, result.proj_tables.nodes
        first_plan = {}
        last_node = {id(ttd.tables[t]): t for t in ttd.post_order}
        for t in ttd.post_order:
            tab, children = ttd.table(t), ttd.td.nodes[t].children
            if first_plan.setdefault(id(nodes[t].bucket_of), t) == t or last_node[id(tab)] == t or len(children) != 1:
                continue
            child = nodes[children[0]]
            singles = {}  # kept row of a one-row bucket and one origin -> its count
            for j in purged.kept[t]:
                if j not in tab.more and len(nodes[t].pcnts[nodes[t].bucket_of[j]]) == 2:
                    o = tab.first[j]
                    singles[j] = child.pcnts[child.bucket_of[o]][1 << child.pos_in_bucket[o]]
            pairs = [(j0, j1) for j0 in singles for j1 in singles if singles[j0] < singles[j1]]
            if pairs:
                break
        else:
            pytest.fail("no node to swap origins at")
        j0, j1 = pairs[0]
        swapped = array("q", tab.first)
        swapped[j0], swapped[j1] = tab.first[j1], tab.first[j0]
        tables = list(ttd.tables)
        tables[t] = NodeTable(tab.rows, swapped, tab.more, tab.arity, tab.stride)
        purged = PurgedTables(dataclasses.replace(ttd, tables=tables), purged.kept)
        got = run_proj(purged, result.program.projection)
        assert got.nodes[t].pcnts != nodes[t].pcnts
        assert got.plans > result.proj_tables.plans
        assert_matches_reference(result.program.projection, purged, got)

    def test_plan_shared_across_child_tables(self):
        # two nodes of equal table, kept list and slot masks whose children
        # hold different table objects (of equal rows, their origins told
        # apart further down) share one plan, and every count still matches
        # the defining recursion
        result = pipeline.solve(parse_program(helpers.disjunctive_chain(20, 3)))
        ttd, purged, proj = result.ttd, result.purged, result.proj_tables
        pmask, slots = result.program.projection, ttd.slots
        smasks, first_of, shared = {}, {}, 0
        for t in ttd.post_order:
            nd = ttd.td.nodes[t]
            smasks[t] = smask = sum(1 << slots[a] for a in nd.bag if pmask >> a & 1)
            if not nd.children:
                continue
            key = id(ttd.tables[t]), id(purged.kept[t]), smask, smasks[nd.children[0]]
            first = first_of.setdefault(key, t)
            child_tables = [id(ttd.tables[c]) for c in ttd.td.nodes[first].children]
            if child_tables != [id(ttd.tables[c]) for c in nd.children]:
                assert proj.nodes[t].bucket_of is proj.nodes[first].bucket_of, (first, t)
                assert proj.nodes[t].pos_in_bucket is proj.nodes[first].pos_in_bucket, (first, t)
                shared += 1
        assert shared
        assert result.count == 21**3
        assert_matches_reference(pmask, purged, proj)
