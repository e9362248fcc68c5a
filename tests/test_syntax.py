import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from freezeml.infer import make_supply
from freezeml.parser import parse_term, parse_type, render_term
from freezeml.subst import substitute
from freezeml.syntax import (
    ARROW,
    BOOL,
    INT,
    PAIR,
    Con,
    Forall,
    Freeze,
    Gen,
    Inst,
    App,
    Kind,
    KindEnv,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Lit,
    NameSupply,
    TermClass,
    TVar,
    TypeEnv,
    Var,
    alpha_eq,
    arrow,
    classify,
    decompose,
    desugar,
    foralls,
    ftv_ordered,
    Term,
    Type,
    is_gval,
    is_monotype,
    list_of,
    names,
    pair_of,
    t_int,
)

from alpha_eq_oracle import alpha_eq as alpha_eq_oracle
from generators import random_surface_term, random_type
from subst_oracles import kind_le


def ty(src: str):
    return parse_type(src)


class TestKind:
    def test_join_total(self):
        assert Kind.MONO.join(Kind.MONO) is Kind.MONO
        assert Kind.MONO.join(Kind.POLY) is Kind.POLY
        assert Kind.POLY.join(Kind.MONO) is Kind.POLY
        assert Kind.POLY.join(Kind.POLY) is Kind.POLY

    def test_order(self):
        assert kind_le(Kind.MONO, Kind.POLY)
        assert not kind_le(Kind.POLY, Kind.MONO)

    def test_printed_as_words(self):
        assert (str(Kind.MONO), str(Kind.POLY)) == ("mono", "poly")


class TestFtvOrdered:
    def test_first_occurrence_order(self):
        assert list(ftv_ordered(ty("(a -> b) -> (a -> c)"))) == ["a", "b", "c"]

    def test_closed(self):
        assert list(ftv_ordered(t_int)) == []

    def test_bound_excluded(self):
        assert list(ftv_ordered(ty("forall a. a -> b"))) == ["b"]

    def test_shadowing(self):
        assert list(ftv_ordered(Forall("a", ty("a -> b")))) == ["b"]

    def test_no_duplicates_no_bound(self):
        rng = random.Random(7)
        for _ in range(300):
            t = random_type(rng, ("m",), ("p",), depth=4)
            free = ftv_ordered(t)
            assert len(free) == len(set(free))
            # q-prefixed names are only introduced bound
            assert all(not v.startswith("q") for v in free)

    def test_agrees_with_recursive_walk_on_random_input(self):
        rng = random.Random(13)
        for _ in range(300):
            # the same names free and bound, so binders shadow free uses
            t = random_type(rng, ("a", "b", "%2"), ("p", "q0"), depth=5)
            t = Forall("a", t) if rng.random() < 0.3 else t
            assert list(ftv_ordered(t)) == reference_ftv(t)

    def test_deep_type(self):
        t = arrow(TVar("b"), TVar("a"))
        for i in range(10_000):
            t = Forall("a", arrow(TVar(f"c{i % 2}"), t))
        assert list(ftv_ordered(t)) == ["c1", "c0", "b"]
        # substitution asks for the free variables first, and skips a
        # type that has none of its domain
        assert substitute({"z": t_int}, t) is t

    def test_second_call_returns_the_cached_dict(self):
        t = ty("forall a. a -> b -> c")
        assert ftv_ordered(t) is ftv_ordered(t)

    def test_node_adding_no_variable_shares_its_childs_dict(self):
        inner = ty("a -> b")
        assert ftv_ordered(arrow(inner, TVar("a"))) is ftv_ordered(inner)
        assert ftv_ordered(Forall("c", inner)) is ftv_ordered(inner)

    def test_cached_subtrees_agree_with_recursive_walk(self):
        rng = random.Random(17)
        for _ in range(200):
            # one uncached subtree reached twice, then every node re-read
            shared = random_type(rng, ("a", "b"), ("p", "a"), depth=3)
            other = random_type(rng, ("b", "c"), ("p",), depth=3)
            t = Forall("b", arrow(arrow(shared, other), shared))
            ftv_ordered(t)
            stack = [t]
            while stack:
                node = stack.pop()
                assert list(ftv_ordered(node)) == reference_ftv(node)
                if isinstance(node, Con):
                    stack.extend(node.args)
                elif isinstance(node, Forall):
                    stack.append(node.body)


def reference_ftv(t):
    """A plain recursive walk: what `ftv_ordered` must agree with."""
    seen: list[str] = []

    def go(x, bound):
        if isinstance(x, TVar):
            if x.name not in bound and x.name not in seen:
                seen.append(x.name)
        elif isinstance(x, Con):
            for arg in x.args:
                go(arg, bound)
        else:
            go(x.body, bound | {x.var})

    go(t, frozenset())
    return seen


def reference_names(*nodes):
    """A plain recursive pre-order walk: what `names` must agree with."""
    terms: dict[str, None] = {}
    types: dict[str, None] = {}

    def go(x):
        if isinstance(x, TVar):
            types[x.name] = None
        elif isinstance(x, Con):
            for arg in x.args:
                go(arg)
        elif isinstance(x, Forall):
            types[x.var] = None
            go(x.body)
        elif isinstance(x, (Var, Freeze)):
            terms[x.name] = None
        elif isinstance(x, Lit):
            pass
        elif isinstance(x, Lam):
            terms[x.var] = None
            go(x.body)
        elif isinstance(x, LamAnn):
            terms[x.var] = None
            go(x.ann)
            go(x.body)
        elif isinstance(x, App):
            go(x.fn)
            go(x.arg)
        elif isinstance(x, Let):
            terms[x.var] = None
            go(x.bound)
            go(x.body)
        elif isinstance(x, LetAnn):
            terms[x.var] = None
            go(x.ann)
            go(x.bound)
            go(x.body)
        elif isinstance(x, (Gen, Inst)):
            go(x.body)
        else:
            raise TypeError(x)

    for node in nodes:
        go(node)
    return list(terms), list(types)


class TestNames:
    def test_free_and_bound_in_first_occurrence_order(self):
        terms, types = names(ty("forall b. (a -> b) -> [forall a. c]"))
        assert terms == {}
        assert list(types) == ["b", "a", "c"]

    def test_binders_annotations_and_sugar(self):
        term = parse_term("let (f : forall a. a -> b) = $(\\x. x) in \\(y : c). (f ~y)@")
        terms, types = names(term)
        assert list(terms) == ["f", "x", "y"]
        assert list(types) == ["a", "b", "c"]

    def test_agrees_with_recursive_walk_on_random_input(self):
        rng = random.Random(11)
        for _ in range(300):
            annotations = tuple(
                random_type(rng, ("a", "%3"), ("p", "%g7"), depth=3) for _ in range(4)
            )
            term = random_surface_term(rng, ("z",), 5, annotations)
            extra = random_type(rng, ("m", "%1"), ("p",), depth=4)
            other = random_surface_term(rng, (), 3, annotations)
            nodes = (term, extra, other)
            terms, types = names(*nodes)
            assert (list(terms), list(types)) == reference_names(*nodes)

    def test_deep_type(self):
        t = t_int
        for i in range(10_000):
            t = Forall(f"a{i}", arrow(TVar(f"a{i}"), t))
        assert len(names(t)[1]) == 10_000

    def test_deep_term(self):
        m = Var("x0")
        for i in range(10_000):
            m = App(Lam(f"x{i}", m), Lit(i))
        assert len(names(m)[0]) == 10_000

    def test_make_supply_on_deep_lambda_chain(self):
        m = Var("x0")
        for i in range(5_000):
            m = Lam(f"x{i}", m)
        supply = make_supply(KindEnv(), {}, TypeEnv(), m)
        assert supply.fresh() == "%0"


def is_guarded(a: Type) -> bool:
    return not isinstance(a, Forall)


def is_value(m: Term) -> bool:
    return classify(m) >= TermClass.VAL


class TestSyntacticClasses:
    def test_monotype_excludes_any_quantifier(self):
        assert is_monotype(ty("Int -> [a]"))
        assert not is_monotype(ty("[forall a. a -> a]"))
        assert not is_monotype(ty("forall a. a"))

    def test_guarded_only_constrains_the_root(self):
        assert is_guarded(ty("Int"))
        assert is_guarded(ty("[forall a. a -> a]"))
        assert not is_guarded(ty("forall a. a -> a"))


class TestTypeEnv:
    def test_lookup_returns_rightmost(self):
        env = TypeEnv((("x", t_int), ("x", ty("Bool"))))
        assert env.lookup("x") == ty("Bool")

    def test_extend_shadows(self):
        env = TypeEnv((("x", t_int),)).extend("x", ty("Bool"))
        assert env.lookup("x") == ty("Bool")
        assert len(env) == 2


class TestDecompose:
    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            t = random_type(rng, ("m",), ("p",), depth=4)
            prefix, body = decompose(t)
            assert foralls(prefix, body) == t
            assert not isinstance(body, Forall)


class TestClassify:
    def test_lambda_is_guarded(self):
        assert classify(parse_term("\\x. x")) is TermClass.GVAL

    def test_frozen_var_is_value_not_guarded(self):
        assert classify(Freeze("id")) is TermClass.VAL

    def test_let_with_plain_tail(self):
        term = parse_term("let y = ~id in y")
        assert classify(term) is TermClass.GVAL

    def test_let_with_frozen_tail(self):
        term = parse_term("let y = \\x. x in ~y")
        assert classify(term) is TermClass.VAL

    def test_application_is_nonval(self):
        assert classify(parse_term("id id")) is TermClass.NONVAL

    def test_gval_implies_val_generated(self):
        rng = random.Random(23)
        for _ in range(500):
            term = desugar(random_surface_term(rng, (), rng.randrange(0, 5)))
            if is_gval(term):
                assert is_value(term)


class TestAlphaEq:
    def test_renaming(self):
        assert alpha_eq(ty("forall a. a -> a"), ty("forall b. b -> b"))

    def test_order_of_quantifiers_matters(self):
        assert not alpha_eq(ty("forall a b. a -> b"), ty("forall b a. a -> b"))

    def test_free_variables_are_rigid(self):
        assert not alpha_eq(ty("a -> a"), ty("b -> b"))

    def test_shadowing(self):
        left = Forall("a", Forall("a", TVar("a")))
        right = Forall("b", Forall("c", TVar("c")))
        wrong = Forall("b", Forall("c", TVar("b")))
        assert alpha_eq(left, right)
        assert not alpha_eq(left, wrong)

    def test_reflexive_on_generated(self):
        rng = random.Random(3)
        for _ in range(200):
            t = random_type(rng, ("m",), ("p",), depth=4)
            assert alpha_eq(t, t)

    def test_same_node_under_different_binders(self):
        shared = arrow(TVar("a"), TVar("b"))
        assert not alpha_eq(Forall("a", shared), Forall("b", shared))
        assert not alpha_eq(Forall("a", Forall("b", shared)), Forall("b", Forall("a", shared)))
        assert alpha_eq(arrow(shared, shared), arrow(shared, arrow(TVar("a"), TVar("b"))))

    def test_free_name_equal_to_a_bound_one(self):
        assert not alpha_eq(Forall("a", TVar("a")), Forall("b", TVar("a")))
        assert not alpha_eq(Forall("b", TVar("a")), Forall("a", TVar("a")))
        assert alpha_eq(Forall("b", TVar("a")), Forall("c", TVar("a")))


# Bound variables are drawn from the same small pool as free ones, so
# shadowing binders and free names equal to bound ones are common.
POOL = ("a", "b", "c")


def _skeleton(rng: random.Random, depth: int, binders: int):
    """A random type shape: bound variables by binder index, free ones by
    name, binder names left open."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        if binders and rng.random() < 0.6:
            return ("bound", rng.randrange(binders))
        return ("free", rng.choice(POOL)) if rng.random() < 0.85 else ("int",)
    if roll < 0.45:
        return ("forall", _skeleton(rng, depth - 1, binders + 1))
    if roll < 0.55:
        return ("list", _skeleton(rng, depth - 1, binders))
    con = "arrow" if rng.random() < 0.75 else "pair"
    return (con, _skeleton(rng, depth - 1, binders), _skeleton(rng, depth - 1, binders))


def _realise(rng: random.Random, skel, scope: tuple[str, ...] = ()):
    """A type of the shape `skel`, each binder named at random from the
    pool; a bound variable names its binder, even if an inner binder of
    the same name captures it."""
    tag = skel[0]
    if tag == "bound":
        return TVar(scope[-1 - skel[1]])
    if tag == "free":
        return TVar(skel[1])
    if tag == "int":
        return t_int
    if tag == "forall":
        var = rng.choice(POOL)
        return Forall(var, _realise(rng, skel[1], scope + (var,)))
    if tag == "list":
        return list_of(_realise(rng, skel[1], scope))
    make = arrow if tag == "arrow" else pair_of
    return make(_realise(rng, skel[1], scope), _realise(rng, skel[2], scope))


def _swap_first_quantifiers(t):
    """`t` with its first two adjacent quantifiers in pre-order swapped."""
    if isinstance(t, Forall):
        if isinstance(t.body, Forall):
            return Forall(t.body.var, Forall(t.var, t.body.body))
        return Forall(t.var, _swap_first_quantifiers(t.body))
    if isinstance(t, Con):
        return Con(t.con, tuple(_swap_first_quantifiers(arg) for arg in t.args))
    return t


def _flip_first_constructor(t):
    """`t` with its first constructor in pre-order replaced by another of
    the same arity (`->` and `Pair`, `Int` and `Bool`), if it has one."""
    if isinstance(t, Forall):
        return Forall(t.var, _flip_first_constructor(t.body))
    if isinstance(t, Con):
        other = {ARROW: PAIR, PAIR: ARROW, INT: BOOL}.get(t.con)
        if other is not None:
            return Con(other, t.args)
        return Con(t.con, tuple(_flip_first_constructor(arg) for arg in t.args))
    return t


def _type_pair(rng: random.Random):
    skel = _skeleton(rng, rng.randrange(1, 6), 0)
    left = _realise(rng, skel)
    how = rng.randrange(6)
    if how == 0:  # the same shape, binders named afresh
        return left, _realise(rng, skel)
    if how == 1:  # one node under different binder lists
        return Forall(rng.choice(POOL), left), Forall(rng.choice(POOL), left)
    if how == 2:  # quantifiers in a different order
        return left, _swap_first_quantifiers(_realise(rng, skel))
    if how == 3:  # one node shared by both sides, beside different types
        other = _realise(rng, _skeleton(rng, 2, 0))
        return arrow(left, other), arrow(left, _realise(rng, skel))
    if how == 4:  # one constructor differs
        return left, _flip_first_constructor(_realise(rng, skel))
    return left, _realise(rng, _skeleton(rng, rng.randrange(1, 6), 0))


class TestAlphaEqOracle:
    """The explicit-stack walk against the recursive one it replaced."""

    def test_agrees_with_the_recursive_walk(self):
        rng = random.Random(4711)
        verdicts = Counter()
        for _ in range(5000):
            left, right = _type_pair(rng)
            expected = alpha_eq_oracle(left, right)
            assert alpha_eq(left, right) is expected, (left, right)
            assert alpha_eq(right, left) is expected, (left, right)
            verdicts[expected] += 1
        assert verdicts[True] > 1000 and verdicts[False] > 1000

    @staticmethod
    def deep_arrow(n: int, leaf: str):
        t = TVar("a")
        for i in range(n):
            t = arrow(TVar(f"b{i % 7}"), t) if i % 2 else arrow(t, t_int)
        return arrow(t, TVar(leaf))

    @staticmethod
    def deep_foralls(n: int, names: str, inner: int):
        # the body names the binder `inner` levels in from the outermost
        return foralls([f"{names}{i}" for i in range(n)], TVar(f"{names}{inner}"))

    def test_deep_arrow(self):
        left = self.deep_arrow(10_000, "z")
        assert alpha_eq(left, self.deep_arrow(10_000, "z"))
        assert not alpha_eq(left, self.deep_arrow(10_000, "y"))
        with pytest.raises(RecursionError):
            alpha_eq_oracle(left, self.deep_arrow(10_000, "z"))

    def test_deep_repeated_binder_names(self):
        # forall a. forall a. ... a: each binder shadows the one outside it,
        # so the body names the innermost
        n = 10_000
        chain = foralls(["a"] * n, TVar("a"))
        assert alpha_eq(chain, foralls(["a"] * n, TVar("a")))
        assert alpha_eq(chain, foralls(["a"] * (n - 1) + ["b"], TVar("b")))
        assert not alpha_eq(chain, foralls(["a"] * (n - 1) + ["b"], TVar("a")))
        assert not alpha_eq(chain, foralls(["b"] + ["a"] * (n - 1), TVar("b")))
        assert not alpha_eq(chain, foralls(["a"] * (n - 1), TVar("a")))

    def test_deep_foralls(self):
        left = self.deep_foralls(10_000, "p", 17)
        assert alpha_eq(left, self.deep_foralls(10_000, "q", 17))
        assert not alpha_eq(left, self.deep_foralls(10_000, "q", 18))
        assert not alpha_eq(left, self.deep_foralls(9_999, "q", 17))


class TestDesugar:
    def test_gen_expands_to_frozen_let(self):
        term = desugar(parse_term("$(\\x. x)"))
        assert isinstance(term, Let)
        assert isinstance(term.body, Freeze)
        assert term.body.name == term.var

    def test_inst_expands_to_plain_let(self):
        term = desugar(parse_term("(head ids)@"))
        assert isinstance(term, Let)
        assert isinstance(term.body, Var)
        assert term.body.name == term.var

    def test_no_sugar_unchanged(self):
        term = parse_term("\\x. x")
        assert desugar(term) is term

    def test_sugar_free_random_terms_come_back_as_is(self):
        rng = random.Random(29)
        for _ in range(300):
            term = reference_desugar(random_surface_term(rng, (), rng.randint(0, 6)))
            assert desugar(term) is term

    def test_only_the_path_to_sugar_is_rebuilt(self):
        term = parse_term("(\\y. y) (\\z. $(\\x. x))")
        out = desugar(term)
        assert out.fn is term.fn
        assert out.arg is not term.arg

    def test_agrees_with_recursive_reference_on_random_terms(self):
        rng = random.Random(31)
        for _ in range(1000):
            # printed and parsed back, so every node carries a span
            term = parse_term(render_term(random_surface_term(rng, (), rng.randint(1, 6))))
            # the repr shows the %g names and the spans
            assert repr(desugar(term)) == repr(reference_desugar(term))

    def test_deep_term(self):
        m = Var("x")
        for _ in range(10_000):
            m = Gen(Lam("x", m))
        assert len(names(desugar(m))[0]) == 10_001

    def test_gen_of_value_is_val_not_gval(self):
        term = desugar(parse_term("$(\\x. x)"))
        assert classify(term) is TermClass.VAL

    def test_inst_of_value_is_gval(self):
        term = desugar(parse_term("(\\x. x)@"))
        assert classify(term) is TermClass.GVAL

    def test_fresh_names_avoid_capture(self):
        # A user cannot write %-names, but nested expansions must not collide.
        term = desugar(parse_term("$(\\x. $(\\y. y))"))
        outer = term
        inner = outer.bound.body  # \x. <inner let>
        assert outer.var != inner.var


def reference_desugar(m):
    """A plain recursive walk: what `desugar` must agree with."""
    supply = NameSupply(names(m)[0])

    def walk(t):
        if isinstance(t, (Var, Freeze, Lit)):
            return t
        if isinstance(t, Lam):
            return Lam(t.var, walk(t.body), t.span)
        if isinstance(t, LamAnn):
            return LamAnn(t.var, t.ann, walk(t.body), t.span)
        if isinstance(t, App):
            return App(walk(t.fn), walk(t.arg), t.span)
        if isinstance(t, Let):
            return Let(t.var, walk(t.bound), walk(t.body), t.span)
        if isinstance(t, LetAnn):
            return LetAnn(t.var, t.ann, walk(t.bound), walk(t.body), t.span)
        x = supply.fresh("g")
        tail = Freeze(x, t.span) if isinstance(t, Gen) else Var(x, t.span)
        return Let(x, walk(t.body), tail, t.span)

    return walk(m)
