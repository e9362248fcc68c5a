import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from freezeml.cli import load_corpus
from freezeml.parser import (
    PUNCT,
    ArityError,
    MissingFinalTerm,
    SyntaxError_,
    display_term_names,
    display_type_names,
    normalize_type_names,
    parse_program,
    parse_term,
    parse_type,
    render_term,
    render_type,
    tokenize,
)
from freezeml.syntax import (
    App,
    Con,
    Forall,
    Freeze,
    Gen,
    Inst,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Lit,
    Span,
    Term,
    TVar,
    Var,
    alpha_eq,
    arrow,
    foralls,
    list_of,
    pair_of,
    t_bool,
    t_int,
)
from freezeml.prelude import build_prelude
from freezeml.syntax import KindEnv
from freezeml.systemf import parse_fterm, render_fterm

import lexer_oracle
from generators import GiveUp, random_f_term, random_surface_term, random_type


class TestParseType:
    def test_forall_arrow(self):
        assert parse_type("forall a. a -> a") == Forall("a", arrow(TVar("a"), TVar("a")))

    def test_list_of_polytype(self):
        assert parse_type("[forall a. a -> a]") == list_of(
            Forall("a", arrow(TVar("a"), TVar("a")))
        )

    def test_pair(self):
        assert parse_type("(Int, Bool)") == pair_of(t_int, t_bool)

    def test_arrow_right_associative(self):
        assert parse_type("a -> b -> c") == arrow(
            TVar("a"), arrow(TVar("b"), TVar("c"))
        )

    def test_multi_binder_forall(self):
        assert parse_type("forall a b. a") == foralls(("a", "b"), TVar("a"))

    def test_forall_on_arrow_right(self):
        t = parse_type("Int -> forall a. a -> a")
        assert isinstance(t, Con)
        assert isinstance(t.args[1], Forall)

    def test_st_arity(self):
        with pytest.raises(ArityError):
            parse_type("ST Int")

    def test_duplicate_forall_binder_rejected(self):
        with pytest.raises(SyntaxError_):
            parse_type("forall a a. a")

    def test_internal_names_rejected(self):
        with pytest.raises(SyntaxError_):
            parse_type("%3 -> %3")


class TestParseTerm:
    def test_freeze_application(self):
        assert parse_term("poly ~id") == App(Var("poly"), Freeze("id"))

    def test_annotated_lambda(self):
        term = parse_term("\\(x : forall a. a -> a). x ~x")
        expected = LamAnn(
            "x",
            Forall("a", arrow(TVar("a"), TVar("a"))),
            App(Var("x"), Freeze("x")),
        )
        assert term == expected

    def test_let_with_frozen_use(self):
        term = parse_term("let f = \\x. x in ~f 42")
        assert term == Let("f", Lam("x", Var("x")), App(Freeze("f"), Lit(42)))

    def test_application_left_associative(self):
        assert parse_term("f g h") == App(App(Var("f"), Var("g")), Var("h"))

    def test_inst_binds_tighter_than_application(self):
        term = parse_term("choose (head ids)@")
        assert isinstance(term, App)
        assert term.fn == Var("choose")

    def test_gen_binds_tighter_than_application(self):
        term = parse_term("poly $(\\x. x)")
        assert isinstance(term, App)
        assert term.fn == Var("poly")

    def test_freeze_only_on_identifiers(self):
        with pytest.raises(SyntaxError_):
            parse_term("~(head ids)")

    def test_list_literal_elaborates_to_cons(self):
        term = parse_term("[~id]")
        assert term == App(App(Var("::"), Freeze("id")), Var("[]"))

    def test_pair_literal_elaborates_to_pair(self):
        term = parse_term("(1, True)")
        assert term == App(App(Var("pair"), Lit(1)), Lit(True))

    def test_multi_binder_lambda(self):
        assert parse_term("\\x y. y") == Lam("x", Lam("y", Var("y")))

    def test_infix_precedence_and_associativity(self):
        def op(name, left, right):
            return App(App(Var(name), left), right)

        one, two, three, xs = Lit(1), Lit(2), Lit(3), Var("xs")
        assert parse_term("1 + 2 + 3") == op("+", op("+", one, two), three)
        assert parse_term("1 :: 2 ++ 3 :: xs") == op("::", one, op("++", two, op("::", three, xs)))
        assert parse_term("1 + 2 :: 3 + xs") == op("::", op("+", one, two), op("+", three, xs))


class TestParseProgram:
    def test_annotated_declaration(self):
        term = parse_program("id : forall a. a -> a = \\x. x; poly ~id")
        expected = LetAnn(
            "id",
            Forall("a", arrow(TVar("a"), TVar("a"))),
            Lam("x", Var("x")),
            App(Var("poly"), Freeze("id")),
        )
        assert term == expected

    def test_single_term(self):
        assert parse_program("poly ~id") == App(Var("poly"), Freeze("id"))

    def test_nesting_order(self):
        term = parse_program("f = \\x. x; g = \\y. y; f")
        assert isinstance(term, Let) and term.var == "f"
        assert isinstance(term.body, Let) and term.body.var == "g"
        assert term.body.body == Var("f")

    def test_missing_final_term(self):
        with pytest.raises(MissingFinalTerm):
            parse_program("f = \\x. x;")

    def test_trailing_garbage(self):
        with pytest.raises(SyntaxError_):
            parse_program("poly ~id extra; more")


class TestRenderType:
    def test_normalizes_internal_names(self):
        t = Forall("%7", arrow(TVar("%7"), TVar("%7")))
        assert render_type(normalize_type_names(t)) == "forall a. a -> a"

    def test_residuals_in_first_occurrence_order(self):
        t = arrow(TVar("%3"), arrow(TVar("%9"), TVar("%9")))
        assert render_type(normalize_type_names(t)) == "a -> b -> b"

    def test_residual_display_avoids_bound_names(self):
        t = arrow(parse_type("forall a. a -> a"), arrow(TVar("%1"), TVar("%1")))
        assert render_type(normalize_type_names(t)) == "(forall a. a -> a) -> b -> b"

    def test_free_internals_before_bound_ones_in_binder_order(self):
        inner = Forall("%1", arrow(TVar("%1"), TVar("%0")))
        t = Forall("%2", arrow(inner, arrow(TVar("%2"), TVar("%5"))))
        assert (
            render_type(normalize_type_names(t))
            == "forall c. (forall d. d -> a) -> c -> b"
        )

    def test_int(self):
        assert render_type(t_int) == "Int"

    def test_unicode(self):
        t = parse_type("forall a. a -> a")
        assert render_type(t, unicode=True) == "∀a. a → a"

    def test_round_trip_exact_without_normalize(self):
        rng = random.Random(5)
        for _ in range(2000):
            t = random_type(rng, ("m", "n"), ("p",), depth=rng.randint(0, 5))
            assert parse_type(render_type(t)) == t

    def test_shadowing_quantifier_starts_a_new_prefix(self):
        # `forall a a.` is a duplicate binder to the parser, so the inner
        # quantifier must print as a prefix of its own
        t = Forall("a", Forall("b", Forall("a", arrow(TVar("a"), TVar("b")))))
        assert render_type(t) == "forall a b. forall a. a -> b"
        assert parse_type(render_type(t)) == t

    def test_round_trip_exact_with_shadowing_binders(self):
        rng = random.Random(7)
        for _ in range(2000):
            t = random_type(rng, ("m",), ("p",), depth=rng.randint(1, 6), binders=("a", "b"))
            assert parse_type(render_type(t)) == t

    def test_round_trip_alpha_with_normalize(self):
        rng = random.Random(6)
        for _ in range(400):
            t = random_type(rng, ("m", "n"), ("p",), depth=4)
            assert alpha_eq(parse_type(render_type(normalize_type_names(t))), t)


class TestDisplayNames:
    def test_type_names_skip_taken_ones(self):
        taken = {"b", "a1"}
        names = display_type_names(taken)
        first = [next(names) for _ in range(27)]
        assert first[:2] == ["a", "c"]
        assert first[-3:] == ["z", "b1", "c1"]

    def test_term_names_skip_taken_ones(self):
        taken = {"y", "x6"}
        names = display_term_names(taken)
        assert [next(names) for _ in range(7)] == ["x", "z", "u", "v", "w", "x7", "x8"]
        assert {"x", "x8"} <= taken


class TestRenderTerm:
    def test_round_trips_surface_examples(self):
        for source in (
            "poly ~id",
            "\\(x : forall a. a -> a). x ~x",
            "let f = \\x. x in ~f 42",
            "choose (head ids)@",
            "poly $(\\x. x)",
            "(1, True)",
            "~(+) 1 2",
            "(::) 1 ([])",
            "~(++) ~([])@",
        ):
            term = parse_term(source)
            assert parse_term(render_term(term)) == term

    def test_nested_sugar_is_parenthesised(self):
        for source in ("$($(\\x. x))", "$((\\x. x)@)", "$(\\x. x)@", "(\\x. x)@@"):
            term = parse_term(source)
            assert render_term(term) == source
            assert parse_term(render_term(term)) == term


def rendered_surface_terms():
    """2000 seeded random surface terms, each with its printed form."""
    rng = random.Random(41)
    for _ in range(2000):
        term = random_surface_term(rng, (), rng.randint(1, 6))
        yield term, render_term(term)


def rendered_f_terms():
    """Seeded random F terms (of 2000 draws), each with its printed form."""
    rng = random.Random(43)
    prelude = build_prelude()
    for _ in range(2000):
        try:
            term = random_f_term(rng, KindEnv(), prelude, depth=rng.randint(1, 4))
        except GiveUp:
            continue
        yield term, render_fterm(term)


class TestPrintedFormsParseBack:
    """Seeded round trips through each printer and its parser; types are
    covered by `TestRenderType.test_round_trip_exact_without_normalize`."""

    def test_surface_terms(self):
        kinds = set()
        for term, text in rendered_surface_terms():
            assert parse_term(text) == term
            stack = [term]
            while stack:
                node = stack.pop()
                kinds.add(type(node))
                stack.extend(child for child in vars(node).values() if isinstance(child, Term))
        # every surface node kind takes part, the sugar and annotations included
        assert kinds == {Var, Freeze, Lit, App, Lam, LamAnn, Let, LetAnn, Gen, Inst}

    def test_f_terms(self):
        checked = 0
        for term, text in rendered_f_terms():
            assert parse_fterm(text) == term
            checked += 1
        assert checked >= 1500


class TestLexer:
    @pytest.mark.parametrize("entry", [parse_term, parse_type, parse_fterm])
    def test_superscript_digit_is_unexpected(self, entry):
        # int() refuses '²', so the lexer must not take it into an int token
        with pytest.raises(SyntaxError_) as caught:
            entry("1²")
        assert caught.value.message == "unexpected character '²'"
        assert (caught.value.span.start, caught.value.span.end) == (1, 2)
        assert (caught.value.span.line, caught.value.span.col) == (1, 2)

    def test_superscript_digit_continues_an_identifier(self):
        assert parse_term("x²") == Var("x²")


def lexed(lex, text):
    """Each token's kind, text and span, or the error's message and span."""
    try:
        return [(tok.kind, tok.text, tok.span) for tok in lex(text)]
    except SyntaxError_ as err:
        return err.message, err.span


# What the lexer decides on, and characters that `str` predicates and
# `re` classes could tell apart: letters outside ASCII, a non-ASCII
# decimal digit, numerics that are not decimal, white space other than
# the space, and the byte-order mark.
LEXER_PIECES = (
    *string.ascii_letters, *string.digits, "_", "%", "'", "#", " ", "\n", "\r", "\t",
    *PUNCT, "é", "ǅ", "漢", "١", "²", "½", "Ⅻ", "\x1c", "\x85", "\u2028", "\u3000",
    "\ufeff",
)


class TestLexerOracle:
    """`tokenize` lexes as the character loop in `lexer_oracle` did."""

    @settings(max_examples=3000, deadline=None)
    @given(
        st.lists(st.one_of(st.sampled_from(LEXER_PIECES), st.characters()), max_size=40)
        .map("".join)
    )
    def test_any_text(self, text):
        assert lexed(tokenize, text) == lexed(lexer_oracle.tokenize, text)

    def test_seeded_texts(self):
        texts = [
            text
            for row in load_corpus()
            for text in (row.source, row.expected or "", *(ty for _, ty in row.extras))
        ]
        texts += [text for _, text in rendered_surface_terms()]
        texts += [text for _, text in rendered_f_terms()]
        for text in texts:
            assert lexed(tokenize, text) == lexed(lexer_oracle.tokenize, text), text


class TestSpans:
    # Tabs, CRLF line ends and comments; only "\n" starts a new line.
    SOURCE = (
        "# identity, annotated\r\n"
        "f : forall a. a -> a =\r\n"
        "\t\\x. x;  # a comment\r\n"
        "\tf ~poly\r\n"
    )

    def test_a_token_builds_its_span_once(self):
        for tok in tokenize(self.SOURCE):
            assert tok.span is tok.span

    def test_nodes_carry_their_tokens_spans(self):
        program = parse_program(self.SOURCE)
        assert program.span == Span(23, 24, 2, 1)
        lam, app = program.bound, program.body
        assert lam.span == Span(49, 50, 3, 3)
        assert lam.body.span == Span(52, 53, 3, 6)
        assert app.span == app.fn.span == Span(70, 71, 4, 2)
        assert app.arg.span == Span(72, 73, 4, 4)

    def test_errors_carry_their_spans(self):
        with pytest.raises(SyntaxError_) as caught:
            parse_program(self.SOURCE.replace("~poly", "~poly!"))
        assert caught.value.message == "unexpected character '!'"
        assert caught.value.span == Span(77, 78, 4, 9)
        with pytest.raises(MissingFinalTerm) as caught:
            parse_program(self.SOURCE.replace("\tf ~poly\r\n", ""))
        assert caught.value.span == Span(69, 69, 4, 1)


class TestParserTotality:
    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet=string.printable, max_size=60))
    def test_random_strings_yield_ast_or_diagnostic(self, text):
        for entry in (parse_type, parse_term, parse_program):
            try:
                entry(text)
            except SyntaxError_ as err:
                assert err.span is not None
                assert 0 <= err.span.start <= err.span.end <= max(len(text), 1)

    def test_seeded_byte_fuzz_100k(self):
        rng = random.Random(99)
        pool = "()[]\\~$@.,;:+ ->:: forall let in idxy123%'\n\tTrueST"
        for _ in range(100_000):
            text = "".join(
                rng.choice(pool) for _ in range(rng.randrange(0, 30))
            )
            try:
                parse_program(text)
            except SyntaxError_ as err:
                assert err.span is not None

    def test_seeded_byte_fuzz_all_entry_points(self):
        rng = random.Random(98)
        pool = "()[]\\~$@.,;:+ ->:: forall let in idxy123%'\n\t"
        for _ in range(3000):
            text = "".join(
                rng.choice(pool) for _ in range(rng.randrange(0, 40))
            )
            for entry in (parse_type, parse_term, parse_program):
                try:
                    entry(text)
                except SyntaxError_ as err:
                    assert err.span is not None
