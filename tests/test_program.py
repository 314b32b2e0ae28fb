import random
import sys
import time

import pytest

import helpers
import reference
from paspc.formats import parse_program
from paspc.program import (
    Program,
    ProgramKind,
    Rule,
    classify,
    cyclic_components,
    is_model,
    iter_bits,
    mask_of,
)


def atom_masks(r):
    """The rule's (head, positive body, negative body) atom-id masks, as
    ``is_model`` reads a rule."""
    return tuple(map(mask_of, r))


def rule_of(p, head, pos=(), neg=()):
    return Rule.make([p.atom_id(a) for a in head], [p.atom_id(a) for a in pos], [p.atom_id(a) for a in neg])


class TestIterBits:
    def test_matches_scan_on_seeded_masks(self):
        rng = random.Random(31)
        masks = [0, 1, 0b1011, 1 << 64, (1 << 100_003) | 0b101, (1 << 100_100) - 1]
        masks += [rng.getrandbits(n) for n in (1, 7, 64, 65, 1000) for _ in range(20)]
        masks.append(rng.getrandbits(100_200) & rng.getrandbits(100_200))
        for m in masks:
            n = m.bit_length()
            assert list(iter_bits(m)) == [i for i in range(n) if m >> i & 1]

    def test_one_high_bit_is_cheap(self):
        # one step per set bit: shifting the mask one bit at a time takes
        # over 10 s here
        start = time.perf_counter()
        assert list(iter_bits(1 << 1_000_000)) == [1_000_000]
        assert time.perf_counter() - start < 1


class TestSatisfies:
    """One rule's satisfaction, as ``is_model`` tests it on one rule with
    atom-id masks."""

    def test_head_hit(self, example1):
        r = rule_of(example1, ["d", "e"], pos=["b"])
        assert is_model(example1.mask("bcd"), [atom_masks(r)])

    def test_empty_constraint_unsatisfiable(self):
        r = Rule.make([], [], [])
        assert not is_model(0, [atom_masks(r)])

    def test_positive_body_met_head_missed(self):
        p = Program.from_specs([(("b",), ("a",), ())])
        assert not is_model(p.mask("a"), [atom_masks(p.rules[0])])


class TestClassify:
    def test_example1_head_cycle_free_not_normal(self, example1):
        c = classify(example1)
        assert c.kind is ProgramKind.HEAD_CYCLE_FREE
        assert not c.is_normal

    def test_example1_not_tight_has_be_cycle(self, example1):
        dep = reference.dependency_digraph(example1)
        b, e = example1.atom_id("b"), example1.atom_id("e")
        assert (b, e) in dep.edges and (e, b) in dep.edges

    def test_head_cycle_makes_disjunctive(self):
        p = Program.from_specs([(("a", "b"), (), ()), (("a",), ("b",), ()), (("b",), ("a",), ())])
        assert classify(p).kind is ProgramKind.DISJUNCTIVE

    def test_self_loop_breaks_tightness_only(self):
        p = Program.from_specs([(("a",), ("a",), ())])
        assert classify(p).kind is ProgramKind.HEAD_CYCLE_FREE

    def test_dropping_disjunctive_rules_normalizes(self):
        rng = random.Random(5)
        for _ in range(40):
            p = helpers.random_mixed(rng, rng.randint(2, 7), rng.randint(1, 10))
            kept = [(r.head, r.pos_body, r.neg_body) for r in p.rules if len(r.head) <= 1]
            names = p.atom_names
            q = Program.from_specs(
                [(tuple(names[i] for i in h), tuple(names[i] for i in b), tuple(names[i] for i in n)) for h, b, n in kept]
            )
            c = classify(q)
            assert c.is_normal
            assert c.kind in (ProgramKind.TIGHT, ProgramKind.HEAD_CYCLE_FREE)


def brute_force_has_head_cycle(p):
    """Reachability-based reference: two distinct head atoms of one rule lie
    on a common cycle iff they reach each other."""
    reach = reference.reachable(reference.dependency_digraph(p))
    for r in p.rules:
        for a in r.head:
            for b in r.head:
                if a < b and b in reach[a] and a in reach[b]:
                    return True
    return False


def test_scc_head_cycle_agrees_with_brute_force():
    rng = random.Random(99)
    for _ in range(150):
        p = helpers.random_mixed(rng, rng.randint(1, 8), rng.randint(1, 10))
        got = classify(p).kind is ProgramKind.DISJUNCTIVE
        assert got == brute_force_has_head_cycle(p)


class TestCyclicComponents:
    """``cyclic_components`` against reachability in the reference digraph:
    two cyclic atoms share a component iff each reaches the other, and an
    atom is cyclic iff it reaches itself."""

    @staticmethod
    def check(p):
        comp = cyclic_components(p)
        reach = reference.reachable(reference.dependency_digraph(p))
        for a in range(p.n_atoms):
            assert (a in comp) == (a in reach.get(a, ()))
            for b in comp if a in comp else ():
                assert (comp[a] == comp[b]) == (b in reach[a] and a in reach[b])
        return comp

    def test_overlapping_rule_stream(self):
        several = singletons = 0
        for p in helpers.overlap_fuzz():
            ids = list(self.check(p).values())
            several += len(set(ids)) > 1
            singletons += sum(ids.count(c) == 1 for c in ids)
        # the stream reaches programs of several cyclic components, and
        # self-loops, the only cyclic singletons
        assert several > 10 and singletons > 10

    def test_projection_fuzz_streams(self):
        for _, p, _ in helpers.projection_fuzz():
            self.check(p)

    def test_long_cycle_is_one_component(self):
        n = 50_000
        assert sys.getrecursionlimit() < n
        chain = [((f"x{i + 1}",), (f"x{i}",), ()) for i in range(n - 1)]
        c = classify(Program.from_specs(chain + [(("x0",), (f"x{n - 1}",), ())]))
        assert c.kind is ProgramKind.HEAD_CYCLE_FREE
        assert len(c.components) == n and len(set(c.components.values())) == 1
        assert classify(Program.from_specs(chain)).kind is ProgramKind.TIGHT


def test_duplicate_rules_and_atoms_collapse():
    p = Program.from_specs([(("a", "a"), (), ()), (("a",), (), ())])
    assert len(p.rules) == 1
    assert p.rules[0].head == (0,)


class TestRule:
    """Rules are tuples underneath: equal atom sets give one rule, whatever
    the order the source lists them in, and the first occurrence stays."""

    def test_from_specs_keeps_first_occurrence(self):
        p = Program.from_specs(
            [
                (("b", "a"), ("c", "d"), ("e",)),
                (("c",), (), ()),
                (("a", "b"), ("d", "c", "c"), ("e", "e")),
                (("c",), (), ()),
                (("a",), (), ("b",)),
            ]
        )
        assert p.atom_names == ("b", "a", "c", "d", "e")
        assert p.rules == (Rule((0, 1), (2, 3), (4,)), Rule((2,), (), ()), Rule((1,), (), (0,)))
        assert all(type(r) is Rule for r in p.rules)

    def test_from_specs_rejects_unknown_projection_atom(self):
        with pytest.raises(ValueError, match="projection atom 'z' does not occur in any rule"):
            Program.from_specs([(("a",), (), ())], projection=["a", "z"])

    def test_parse_keeps_first_occurrence(self):
        p = parse_program("b | a :- c, d, not e.\nc.\na | b :- not e, d, c, c.\nc.\na :- not b.\n")
        assert p == Program.from_specs([(("b", "a"), ("c", "d"), ("e",)), (("c",), (), ()), (("a",), (), ("b",))])
        assert p.rules == (Rule((0, 1), (2, 3), (4,)), Rule((2,), (), ()), Rule((1,), (), (0,)))

    @pytest.mark.parametrize(
        "text", [helpers.EXAMPLE1_TEXT, helpers.WIDE_HCF_TEXT, helpers.HEAD_CYCLE_TEXT, helpers.disjunctive_chain(3, 2)]
    )
    def test_program_equality_and_hash(self, text):
        # a rule hashes as the tuple of its fields, as a frozen dataclass
        # did, so a program's hash and equality are what they were
        p = parse_program(text)
        q = reference.reference_parse_program(text)
        assert p == q and hash(p) == hash(q)
        fields = tuple((r.head, r.pos_body, r.neg_body) for r in p.rules)
        assert hash(p) == hash((p.atom_names, fields, p.projection))
        assert all(hash(r) == hash(f) for r, f in zip(p.rules, fields))
        assert p != p.with_projection(p.projection ^ 1)

    def test_set_member(self, example1):
        b, e, d = (example1.atom_id(x) for x in "bed")
        r = Rule((b,), (e,), (d,))
        assert r == Rule.make([b], [e], [d]) and r.head == (b,) and r.neg_body == (d,)
        assert r in set(example1.rules)
        assert {Rule(tuple(sorted((d, e))), (b,), ()), r} <= set(example1.rules)

    def test_with_projection_shares_atoms_rules_and_index(self, example1):
        q = example1.with_projection(example1.atom_mask)
        assert q.atom_names is example1.atom_names and q.rules is example1.rules
        assert q._index is example1._index
        assert q.projection == example1.atom_mask and q.mask("de") == example1.projection


def test_projection_must_be_subset():
    p = Program.from_specs([(("a",), (), ())])
    with pytest.raises(ValueError):
        Program(p.atom_names, p.rules, 0b10)
