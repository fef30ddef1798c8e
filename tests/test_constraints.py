from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from feac.constraints import (
    CMP_OPS,
    MAX_DEPTH,
    And,
    Cmp,
    CountCmp,
    DistCmp,
    Lit,
    Not,
    Or,
    Ref,
    constraint_to_text,
    evaluate,
)
from feac.model import PolicyStore, Subject
from feac.scenario import parse_scenario

F = Fraction


def subject(**props) -> Subject:
    return Subject("S1", dict(props))


def store_with(asrt=None, constraints=None) -> PolicyStore:
    store = PolicyStore()
    store.asrt = asrt or {}
    store.constraints = constraints or {}
    return store


def test_literals():
    assert evaluate(Lit(True), subject(), store_with())
    assert not evaluate(Lit(False), subject(), store_with())


class TestCmp:
    def test_numeric_orders(self):
        s = subject(age=F(41))
        st = store_with()
        assert evaluate(Cmp("age", ">=", F(41)), s, st)
        assert evaluate(Cmp("age", "<", F(50)), s, st)
        assert not evaluate(Cmp("age", "!=", F(41)), s, st)

    def test_missing_property_is_false(self):
        assert not evaluate(Cmp("age", "=", F(1)), subject(), store_with())

    def test_string_equality_only(self):
        s = subject(ward="icu")
        st = store_with()
        assert evaluate(Cmp("ward", "=", "icu"), s, st)
        assert evaluate(Cmp("ward", "!=", "er"), s, st)
        assert not evaluate(Cmp("ward", "<", "zzz"), s, st)

    def test_bool_never_equals_number(self):
        # Fraction(1) == True in Python; the evaluator must not conflate them.
        s = subject(senior=True, level=F(1))
        st = store_with()
        assert evaluate(Cmp("senior", "=", True), s, st)
        assert not evaluate(Cmp("senior", "=", F(1)), s, st)
        assert not evaluate(Cmp("level", "=", True), s, st)

    def test_coordinates_never_compare_as_scalars(self):
        s = subject(location=(F(1), F(2)))
        assert not evaluate(Cmp("location", "=", F(1)), s, store_with())


class TestDistCmp:
    def test_squared_comparison_is_exact_on_the_boundary(self):
        s = subject(location=(F(3), F(4)))
        st = store_with()
        assert evaluate(DistCmp("location", (F(0), F(0)), "<=", F(5)), s, st)
        assert not evaluate(DistCmp("location", (F(0), F(0)), "<", F(5)), s, st)
        assert evaluate(DistCmp("location", (F(0), F(0)), "=", F(5)), s, st)

    def test_non_coordinate_property_is_false(self):
        s = subject(location="lobby")
        assert not evaluate(DistCmp("location", (F(0), F(0)), "<=", F(5)), s, store_with())


def test_count_over_active_roles():
    st = store_with(asrt={"S1": {"Nurse"}, "S2": {"Nurse", "Doctor"}, "S3": set()})
    s = subject()
    assert evaluate(CountCmp("Nurse", "=", 2), s, st)
    assert evaluate(CountCmp("Doctor", "<", 2), s, st)
    assert not evaluate(CountCmp("Nurse", ">", 2), s, st)


def test_an_operator_outside_cmp_ops_is_false_for_every_atom_kind():
    """Only code can build such an atom; each one would hold under `>=`."""
    s = subject(x=F(5), pos=(F(3), F(4)))
    st = store_with(asrt={"S1": {"R"}, "S2": {"R"}})

    def atoms(op):
        return (Cmp("x", op, F(3)), DistCmp("pos", (F(0), F(0)), op, F(1)), CountCmp("R", op, 1))

    # With `>=` each atom holds, so each false below is the operator's.
    assert all(evaluate(atom, s, st) for atom in atoms(">="))
    for op in ("==", "=>", "<>", ""):
        assert op not in CMP_OPS
        for atom in atoms(op):
            assert not evaluate(atom, s, st), atom
            assert evaluate(Not(atom), s, st), atom


def test_boolean_combinators():
    s = subject(age=F(30))
    st = store_with()
    young = Cmp("age", "<", F(40))
    old = Cmp("age", ">", F(60))
    assert evaluate(Or((old, young)), s, st)
    assert not evaluate(And((old, young)), s, st)
    assert evaluate(Not(old), s, st)


class TestRef:
    def test_resolves_named_constraint(self):
        st = store_with(constraints={"adult": Cmp("age", ">=", F(18))})
        assert evaluate(Ref("adult"), subject(age=F(20)), st)
        assert not evaluate(Ref("adult"), subject(age=F(10)), st)

    def test_unknown_reference_is_false(self):
        assert not evaluate(Ref("ghost"), subject(), store_with())

    def test_cycles_terminate_false(self):
        st = store_with(constraints={"a": Ref("b"), "b": Ref("a")})
        assert not evaluate(Ref("a"), subject(), st)

    def test_chain_deeper_than_max_depth_is_false(self):
        def chain(length):
            refs = {f"c{i}": Ref(f"c{i + 1}") for i in range(length)}
            return store_with(constraints={**refs, f"c{length}": Lit(True)})

        assert evaluate(Ref("c0"), subject(), chain(MAX_DEPTH - 1))
        assert not evaluate(Ref("c0"), subject(), chain(MAX_DEPTH))

    def test_self_cycle(self):
        st = store_with(constraints={"a": Or((Ref("a"), Lit(True)))})
        # The inner self-reference is false; the disjunction still succeeds.
        assert evaluate(Ref("a"), subject(), st)


class TestToText:
    def test_atoms(self):
        assert constraint_to_text(Lit(True)) == "true"
        assert constraint_to_text(Cmp("ward", "=", "icu")) == 'ward = "icu"'
        assert constraint_to_text(Cmp("senior", "=", True)) == "senior = true"
        assert (
            constraint_to_text(DistCmp("location", (F(0), F(1, 2)), "<=", F(50)))
            == "dist(location, (0, 0.5)) <= 50"
        )
        assert constraint_to_text(CountCmp("Nurse", "<", 3)) == "count(Nurse) < 3"
        assert constraint_to_text(Ref("on_site")) == "@on_site"

    def test_precedence_parenthesization(self):
        a, b, c = Cmp("x", "=", F(1)), Cmp("y", "=", F(2)), Cmp("z", "=", F(3))
        assert constraint_to_text(And((Or((a, b)), c))) == "(x = 1 or y = 2) and z = 3"
        assert constraint_to_text(Or((And((a, b)), c))) == "x = 1 and y = 2 or z = 3"
        assert constraint_to_text(Not(Or((a, b)))) == "not (x = 1 or y = 2)"
        assert constraint_to_text(Not(a)) == "not x = 1"


# Scenario numbers are decimal literals, so draw only terminating decimals.
numbers = st.builds(lambda n, d: F(n, 10**d), st.integers(-(10**6), 10**6), st.integers(0, 3))
strings = st.text(
    st.characters(blacklist_characters='"\n', blacklist_categories=("Cs",)), max_size=6
)
atoms = st.one_of(
    st.builds(Lit, st.booleans()),
    st.builds(
        Cmp, st.sampled_from(["x", "ward"]), st.sampled_from(CMP_OPS),
        st.one_of(st.booleans(), numbers, strings),
    ),
    st.builds(
        DistCmp, st.sampled_from(["location"]), st.tuples(numbers, numbers),
        st.sampled_from(CMP_OPS), numbers,
    ),
    st.builds(
        CountCmp, st.sampled_from(["R1", "R2"]), st.sampled_from(CMP_OPS), st.integers(-5, 50)
    ),
    st.builds(Ref, st.sampled_from(["a", "b"])),
)


def _compound(children):
    # The printer flattens an `and` directly inside an `and`, and likewise `or`.
    def joined(kind):
        items = children.filter(lambda e: not isinstance(e, kind))
        return st.lists(items, min_size=2, max_size=3).map(lambda xs: kind(tuple(xs)))

    return st.one_of(st.builds(Not, children), joined(And), joined(Or))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.recursive(atoms, _compound, max_leaves=12))
def test_printed_expression_parses_back_equal(expr):
    text = constraint_to_text(expr)
    sc, diags = parse_scenario(
        "scenario t\nrole R1\nrole R2\nconstraint a = true\nconstraint b = false\n"
        f"constraint c = {text}\n"
    )
    assert diags == []
    parsed = sc.store.constraints["c"]
    assert parsed == expr
    # Equality alone would accept 1 for true: Fraction(1) == True.
    assert constraint_to_text(parsed) == text
