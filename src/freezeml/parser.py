"""Concrete syntax: lexing, parsing, and pretty-printing.

Lexical grammar (``_LEXEME``; alpha, alnum and decimal are the
characters that ``str.isalpha``, ``str.isalnum`` and ``str.isdecimal``
accept, so ``x²`` is an identifier and ``²`` an unexpected character)::

    ident := (alpha | '_' | '%') (alnum | '_' | "'")*
    int   := decimal+
    punct := one of PUNCT, longest first

White space (``str.isspace``) and ``#`` comments to the end of the line
separate tokens.  Only ``\\n`` ends a line, so ``\\r``, ``\\x85`` and
``\\u2028`` count as white space.  Any other character is an error.

Grammar sketch (application binds tighter than the infix list/arith
operators; ``@`` and ``$`` bind tighter than application)::

    type  := 'forall' ident+ '.' type | arrow
    arrow := tatom ('->' type)?
    tatom := ident | 'Int' | 'Bool' | '[' type ']'
           | '(' type ',' type ')' | '(' type ')' | 'ST' tatom tatom

    term  := lam | let | op
    op    := sum (('::' | '++') op)?
    sum   := app ('+' app)*
    app   := post+
    post  := prefix '@'*
    prefix:= '$'? atom
    atom  := '~'? ident | int | 'True' | 'False'
           | '(' term (',' term)? ')' | '[' (term (',' term)*)? ']'
    lam   := '\\' binder+ '.' term
    binder:= ident | '(' ident ':' type ')'
    let   := 'let' binder '=' term 'in' term

List, pair, and arithmetic forms elaborate to the prelude constants
``::``, ``[]``, ``pair`` and ``+``, keeping the core calculus free of
literals other than Int/Bool constants.

Programs are ``name (: type)? = term ;`` declarations followed by a
final term; declarations nest into let/let-annotated bindings.

One term parser reads both term grammars, as one printer prints both.
System F's (:func:`freezeml.systemf.parse_fterm`) shares the literals,
variables, operator constants, parentheses, the lambda's binder loop and
the application loop; each grammar adds its own cases.

One printer, :func:`render`, prints types, surface terms and System F
terms: each grammar lays out its nodes over one set of precedence levels,
and a node goes in parentheses where its context expects a tighter one.
The two term grammars share their nodes (see :mod:`freezeml.syntax`), so
the printing grammar is the layout a caller passes, not the node: a
frozen variable prints ``~x`` as a surface term and ``x`` in System F.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from .syntax import (
    BUILTIN_CONS,
    Con,
    Forall,
    Freeze,
    Gen,
    Inst,
    INTERNAL_PREFIX,
    App,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Lit,
    Span,
    Term,
    TVar,
    Type,
    Var,
    Walk,
    arrow,
    ftv_ordered,
    is_internal_name,
    list_of,
    names,
    pair_of,
    rename,
    t_bool,
    t_int,
    trampoline,
)


class SyntaxError_(Exception):
    """Parse failure with a source span."""

    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


class ArityError(SyntaxError_):
    pass


class MissingFinalTerm(SyntaxError_):
    pass


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Token:
    """A lexeme and its position; the `Span` is built on first use."""

    __slots__ = ("kind", "text", "start", "end", "line", "col", "_span")

    def __init__(self, kind: str, text: str, start: int, end: int, line: int, col: int):
        self.kind, self.text = kind, text  # kind: 'ident', 'int', 'punct', 'eof'
        self.start, self.end, self.line, self.col = start, end, line, col

    @property
    def span(self) -> Span:
        try:
            return self._span
        except AttributeError:
            self._span = Span(self.start, self.end, self.line, self.col)
            return self._span


PUNCT = (
    "->", "::", "++", "/\\", "(", ")", "[", "]", ",", ".", "\\", "~", "$",
    "@", "+", "=", ";", ":",
)

KEYWORDS = {"let", "in", "forall", "True", "False", "Int", "Bool", "ST"}

# Prelude constants whose names are not identifiers.  As a term on their
# own, both printers spell them in parentheses, `(+)`, and both parsers
# read that back, so `+` is not taken for the infix operator and, in the
# explicit core, `[]` not for a type application.
OPERATOR_CONSTANTS = ("+", "::", "++", "[]")


def constant_name(name: str) -> str:
    """A variable name as printed on its own: operators in parentheses."""
    return f"({name})" if name in OPERATOR_CONSTANTS else name


# A group's name is the kind of token it makes.  `[^\W\d]` also admits
# numerics such as '²', so `tokenize` checks an identifier's first character.
_LEXEME = re.compile(
    r"(?P<newline>\n)|(?P<skip>[^\S\n]+|#[^\n]*)"
    rf"|(?P<ident>(?:[^\W\d]|{re.escape(INTERNAL_PREFIX)})[\w']*)|(?P<int>\d+)"
    rf"|(?P<punct>{'|'.join(map(re.escape, PUNCT))})"
)
_IDENT_START = "_" + INTERNAL_PREFIX


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    match = _LEXEME.match
    i, n = 0, len(text)
    line, line_start = 1, 0
    while i < n:
        lexeme = match(text, i)
        kind = lexeme.lastgroup if lexeme else None
        if kind == "ident" and not (text[i].isalpha() or text[i] in _IDENT_START):
            kind = None
        if kind is None:
            span = Span(i, i + 1, line, i - line_start + 1)
            raise SyntaxError_(f"unexpected character {text[i]!r}", span)
        j = lexeme.end()
        if kind == "newline":
            line += 1
            line_start = j
        elif kind != "skip":
            tokens.append(Token(kind, lexeme.group(), i, j, line, i - line_start + 1))
        i = j
    tokens.append(Token("eof", "", n, n, line, n - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The surface grammar's infix operators, each with its binding power on
# the left and on the right.  An operator applies before the next one on
# its right when its right power exceeds that one's left power: so `+`
# binds more tightly than `::` and `++`, associates to the left, and they
# to the right.
INFIX = {"::": (2, 1), "++": (2, 1), "+": (3, 4)}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_ident(self, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (text is None or tok.text == text)

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise SyntaxError_(
                f"expected {text!r}, found {self.peek().text!r}", self.peek().span
            )
        return self.advance()

    def expect_end(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            raise SyntaxError_(f"unexpected {tok.text!r}", tok.span)
        return tok

    def operator_constant(self) -> Optional[str]:
        """After '(': consume `op)` for an operator constant, returning `op`.

        Anything else is left for the caller to parse.
        """
        texts = []
        for tok in self.tokens[self.pos:self.pos + 3]:
            if tok.kind != "punct":
                break
            texts.append(tok.text)
            if tok.text == ")":
                break
        name = "".join(texts[:-1])
        if not texts or texts[-1] != ")" or name not in OPERATOR_CONSTANTS:
            return None
        self.pos += len(texts)
        return name

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise SyntaxError_(
                f"expected identifier, found {tok.text!r}", tok.span
            )
        if is_internal_name(tok.text):
            raise SyntaxError_(
                f"identifiers may not start with {INTERNAL_PREFIX!r}", tok.span
            )
        return self.advance()

    # -- types ---------------------------------------------------------------

    # The methods that read a phrase which may nest are walks, run by
    # `trampoline` (see freezeml.syntax): `yield self.type_()` reads a
    # type.  Where one grammar level hands over to the next, and the next
    # comes back only through a `yield`, it delegates with `yield from`.
    # A surface binder and a System F type argument read their type under
    # a trampoline of their own, so that neither need be a walk: a type
    # holds no term, so this nests no deeper.

    def type_(self) -> Walk:
        if self.at_ident("forall"):
            self.advance()
            names = [self.expect_ident().text]
            while self.at_ident() and not self.at_punct("."):
                if self.peek().text in KEYWORDS:
                    break
                names.append(self.expect_ident().text)
            if len(set(names)) != len(names):
                raise SyntaxError_(
                    "duplicate binder in forall", self.peek().span
                )
            self.expect_punct(".")
            body = yield self.type_()
            for name in reversed(names):
                body = Forall(name, body)
            return body
        dom = self.type_leaf() or (yield from self.type_atom())
        if self.at_punct("->"):
            self.advance()
            return arrow(dom, (yield self.type_()))
        return dom

    def type_leaf(self) -> Optional[Type]:
        """A type atom without parts; at any other token, None, consuming nothing."""
        tok = self.peek()
        if tok.kind != "ident" or tok.text == "ST":
            return None
        if tok.text == "Int":
            self.advance()
            return t_int
        if tok.text == "Bool":
            self.advance()
            return t_bool
        return TVar(self.expect_ident().text)

    def type_atom(self) -> Walk:
        """A type atom with parts: an `ST` application, or in brackets or
        parentheses."""
        tok = self.peek()
        if self.at_ident("ST"):
            self.advance()
            if not self._at_type_atom_start():
                raise ArityError("ST expects two arguments", tok.span)
            first = self.type_leaf() or (yield self.type_atom())
            if not self._at_type_atom_start():
                raise ArityError("ST expects two arguments", tok.span)
            second = self.type_leaf() or (yield self.type_atom())
            return Con(BUILTIN_CONS["ST"], (first, second))
        if self.at_punct("["):
            self.advance()
            elem = yield self.type_()
            self.expect_punct("]")
            return list_of(elem)
        if self.at_punct("("):
            self.advance()
            first = yield self.type_()
            if self.at_punct(","):
                self.advance()
                second = yield self.type_()
                self.expect_punct(")")
                return pair_of(first, second)
            self.expect_punct(")")
            return first
        raise SyntaxError_(
            f"expected a type, found {tok.text!r}", tok.span
        )

    def _at_type_atom_start(self) -> bool:
        tok = self.peek()
        if tok.kind == "ident":
            return tok.text not in ("forall", "let", "in")
        return tok.kind == "punct" and tok.text in ("(", "[")

    # -- terms ---------------------------------------------------------------

    # The surface grammar.  `freezeml.systemf._FParser` reads System F's
    # with the same methods: it sets the four attributes below and
    # replaces `node_span`, `term`, `abstract`, `argument`, `grouped` and
    # `applied`.

    variable = Var  # the node an identifier reads as
    argument_puncts = ("(", "[", "~", "$", "\\")  # punctuation an argument starts with
    not_arguments = ("in", "let", "forall")  # identifiers that end an application
    a_term = "a term"  # what an error says was expected

    def node_span(self, at) -> Optional[Span]:
        """The span of a node read at the token `at`, or of an application
        of the node `at`."""
        return at.span

    def term(self) -> Walk:
        if self.at_punct("\\"):
            return (yield from self.lam(self.binder))
        if self.at_ident("let"):
            return (yield from self.let())
        return (yield from self.infix())

    def binder(self) -> tuple[str, Optional[Type], Span]:
        """A lambda's or a let's binder: (name, annotation or None, span)."""
        if self.at_punct("("):
            start = self.advance()
            name = self.expect_ident()
            self.expect_punct(":")
            ann = trampoline(self.type_())
            self.expect_punct(")")
            return name.text, ann, start.span
        name = self.expect_ident()
        return name.text, None, name.span

    def lam(self, binder) -> Walk:
        """`\\` (or `/\\`), `binder`s up to the '.', then the body."""
        self.advance()
        binders = [binder()]
        while not self.at_punct("."):
            binders.append(binder())
        return (yield from self.abstraction(binders))

    def abstraction(self, binders: list) -> Walk:
        """The '.' and the body under `binders`, the first outermost."""
        self.expect_punct(".")
        body = yield self.term()
        for name, ann, span in reversed(binders):
            body = self.abstract(name, ann, body, span)
        return body

    def abstract(self, name: str, ann: Optional[Type], body: Term, span: Optional[Span]) -> Term:
        return Lam(name, body, span) if ann is None else LamAnn(name, ann, body, span)

    def let(self) -> Walk:
        start = self.advance()  # 'let'
        name, ann, _ = self.binder()
        self.expect_punct("=")
        bound = yield self.term()
        if not self.at_ident("in"):
            raise SyntaxError_(
                f"expected 'in', found {self.peek().text!r}", self.peek().span
            )
        self.advance()
        body = yield self.term()
        if ann is None:
            return Let(name, bound, body, start.span)
        return LetAnn(name, ann, bound, body, start.span)

    def infix(self) -> Walk:
        """Applications joined by the operators of `INFIX`, on a stack of
        operands and one of operators."""
        operands, ops = [(yield from self.app_chain())], []
        while True:
            tok = self.peek()
            power = INFIX[tok.text][0] if tok.text in INFIX else 0
            while ops and INFIX[ops[-1].text][1] > power:
                op, right = ops.pop(), operands.pop()
                fn = App(Var(op.text, op.span), operands.pop(), op.span)
                operands.append(App(fn, right, op.span))
            if not power:
                return operands[0]
            ops.append(self.advance())
            operands.append((yield from self.app_chain()))

    def app_chain(self) -> Walk:
        """A function and its arguments, and any type arguments (`applied`)."""
        fn = yield from self.argument()
        while True:
            if self.at_argument():
                fn = App(fn, (yield from self.argument()), self.node_span(fn))
            elif (applied := self.applied(fn)) is not None:
                fn = applied
            else:
                return fn

    def at_argument(self) -> bool:
        tok = self.peek()
        if tok.kind == "ident":
            return tok.text not in self.not_arguments
        return tok.kind == "int" or (tok.kind == "punct" and tok.text in self.argument_puncts)

    def applied(self, fn: Term) -> Optional[Term]:
        """`fn` applied to the type argument that follows, if any; surface
        terms take none."""
        return None

    def argument(self) -> Walk:
        """A prefixed atom and the `@`s after it."""
        tok = self.peek()
        if self.at_punct("\\"):
            # Allow a trailing lambda as the last argument only via parens;
            # a bare lambda here would swallow the rest of the input.
            raise SyntaxError_("lambda must be parenthesised in application position", tok.span)
        gen = self.at_punct("$")
        if gen:
            self.advance()
        term = self.frozen() or self.leaf() or (yield self.atom())
        if gen:
            term = Gen(term, tok.span)
        while self.at_punct("@"):
            term = Inst(term, self.advance().span)
        return term

    def frozen(self) -> Optional[Term]:
        """`~x` or `~(op)`; at any other token, None, consuming nothing."""
        tok = self.peek()
        if not self.at_punct("~"):
            return None
        self.advance()
        if self.at_punct("("):
            self.advance()
            constant = self.operator_constant()
            if constant is None:
                raise SyntaxError_(
                    f"expected an operator constant, found {self.peek().text!r}",
                    self.peek().span,
                )
            return Freeze(constant, tok.span)
        return Freeze(self.expect_ident().text, tok.span)

    def leaf(self) -> Optional[Term]:
        """A literal or a variable; at any other token, None, consuming nothing."""
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Lit(int(tok.text), self.node_span(tok))
        if tok.kind != "ident":
            return None
        if tok.text in ("True", "False"):
            self.advance()
            return Lit(tok.text == "True", self.node_span(tok))
        name = self.expect_ident()
        return self.variable(name.text, self.node_span(name))

    def atom(self) -> Walk:
        """A list, or what `parenthesised` reads."""
        if not self.at_punct("["):
            return (yield from self.parenthesised())
        self.advance()
        elems = []
        if not self.at_punct("]"):
            elems.append((yield self.term()))
            while self.at_punct(","):
                self.advance()
                elems.append((yield self.term()))
        close = self.expect_punct("]")
        result: Term = Var("[]", close.span)
        for elem in reversed(elems):
            result = App(App(Var("::", close.span), elem, close.span), result, close.span)
        return result

    def parenthesised(self) -> Walk:
        """An operator constant, or what `grouped` reads, in parentheses."""
        tok = self.peek()
        if not self.at_punct("("):
            raise SyntaxError_(f"expected {self.a_term}, found {tok.text!r}", tok.span)
        self.advance()
        constant = self.operator_constant()
        if constant is not None:
            return self.variable(constant, self.node_span(tok))
        inner = yield self.grouped()
        self.expect_punct(")")
        return inner

    def grouped(self) -> Walk:
        """A term, or a pair."""
        first = yield self.term()
        if not self.at_punct(","):
            return first
        op = self.advance()
        second = yield self.term()
        return App(App(Var("pair", op.span), first, op.span), second, op.span)

    # -- programs --------------------------------------------------------

    def program(self) -> Walk:
        decls: list[tuple[str, Optional[Type], Term, Span]] = []
        final: Optional[Term] = None
        while self.peek().kind != "eof":
            decl = yield from self._try_declaration()
            if decl is not None:
                decls.append(decl)
                continue
            final = yield from self.term()
            if self.at_punct(";"):
                self.advance()
            break
        tok = self.expect_end()
        if final is None:
            raise MissingFinalTerm("program has no final term", tok.span)
        for name, ann, bound, span in reversed(decls):
            if ann is None:
                final = Let(name, bound, final, span)
            else:
                final = LetAnn(name, ann, bound, final, span)
        return final

    def _try_declaration(self) -> Walk:
        """A declaration, as (name, annotation, bound term, span), or None."""
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            return None
        lookahead = self.tokens[self.pos + 1]
        if lookahead.kind != "punct" or lookahead.text not in ("=", ":"):
            return None
        name = self.expect_ident()
        ann: Optional[Type] = None
        if self.at_punct(":"):
            self.advance()
            ann = yield from self.type_()
        self.expect_punct("=")
        bound = yield from self.term()
        self.expect_punct(";")
        return name.text, ann, bound, name.span


def parse_type(text: str) -> Type:
    parser = _Parser(text)
    ty = trampoline(parser.type_())
    parser.expect_end()
    return ty


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    term = trampoline(parser.term())
    parser.expect_end()
    return term


def parse_program(text: str) -> Term:
    return trampoline(_Parser(text).program())


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_DISPLAY_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_DISPLAY_TERM_NAMES = "xyzuvw"


def display_type_names(taken: set[str]) -> Iterator[str]:
    """Readable type-variable names a, b, ..., z, a1, ..., z1, a2, ...
    that are not in `taken`; each one handed out is added to `taken`."""
    return _untaken(
        taken, lambda i: _DISPLAY_LETTERS[i % 26] + (str(i // 26) if i >= 26 else "")
    )


def display_term_names(taken: set[str]) -> Iterator[str]:
    """Readable term-variable names x, y, z, u, v, w, x6, x7, ... that
    are not in `taken`; each one handed out is added to `taken`."""
    return _untaken(taken, lambda i: _DISPLAY_TERM_NAMES[i] if i < 6 else f"x{i}")


def _untaken(taken: set[str], name_at) -> Iterator[str]:
    i = 0
    while True:
        name = name_at(i)
        i += 1
        if name not in taken:
            taken.add(name)
            yield name


def rename_type(a: Type, mapping: dict[str, str]) -> Type:
    """Rename variables of `a`, free and bound, by `mapping`."""
    return rename(a, mapping, {})


def normalize_type_names(a: Type) -> Type:
    """Rename internal (%-prefixed) variables for display.

    Free internal variables are renamed first, in first-occurrence
    order, then bound ones in the order :func:`freezeml.syntax.names`
    lists them, which is the order of their first binders; names already
    present in the type are never reused, so e.g. a residual next to
    ``forall a`` becomes ``b``.
    """
    type_names = names(a)[1]
    ordered = {**ftv_ordered(a), **type_names}
    internals = [v for v in ordered if is_internal_name(v)]
    if not internals:
        return a
    taken = {n for n in type_names if not is_internal_name(n)}
    return rename_type(a, dict(zip(internals, display_type_names(taken))))


# The precedence levels of every printer, loosest first: a type under a
# quantifier or a term under a binder; an arrow or an application; an
# `ST` application; an atom.
_TOP, _APP, _APPLIED, _ATOM = range(4)


def render(root, layout, unicode: bool) -> str:
    """Print `root`, a type or a term of the grammar `layout` describes.

    `layout(node, unicode)` gives a term node's loosest level and its
    parts, and :func:`_type_layout` does the same for every type node,
    annotations included: the text of a leaf, or a sequence of text and
    (node, level) items that print where the grammar expects that level,
    in parentheses if the node binds more loosely.  One explicit stack
    of parts serves every node, so deep input prints without recursion.
    """
    parts: list[str] = []
    stack: list = [(root, _TOP)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            parts.append(item)
            continue
        node, level = item
        loosest, layout_parts = (_type_layout if isinstance(node, Type) else layout)(node, unicode)
        if layout_parts.__class__ is str:
            parts.append(layout_parts)
            continue
        if loosest < level:
            parts.append("(")
            stack.append(")")
        stack.extend(reversed(layout_parts))
    return "".join(parts)


def render_type(a: Type, unicode: bool = False) -> str:
    """Print `a` with its variable names as given; showing inferred types
    to people goes through :func:`normalize_type_names` first."""
    return render(a, _type_layout, unicode)


def _type_layout(t: Type, unicode: bool) -> tuple:
    if isinstance(t, TVar):
        return _ATOM, t.name
    if isinstance(t, Forall):
        # Binders group while their names are distinct: the parser
        # rejects `forall a a.`, so a shadowing quantifier starts anew.
        prefix = []
        while isinstance(t, Forall) and t.var not in prefix:
            prefix.append(t.var)
            t = t.body
        return _TOP, (("∀" if unicode else "forall ") + " ".join(prefix) + ". ", (t, _TOP))
    name = t.con.name if isinstance(t, Con) else None
    if name == "->":
        return _APP, ((t.args[0], _APPLIED), " → " if unicode else " -> ", (t.args[1], _APP))
    if name is not None and not t.args:
        return _ATOM, name
    if name == "List":
        return _ATOM, ("[", (t.args[0], _TOP), "]")
    if name == "Pair":
        return _ATOM, ("(", (t.args[0], _TOP), ", ", (t.args[1], _TOP), ")")
    if name == "ST":
        return _APPLIED, ("ST ", (t.args[0], _ATOM), " ", (t.args[1], _ATOM))
    raise TypeError(f"not a type: {t!r}")


def render_term(m: Term, unicode: bool = False) -> str:
    return render(m, _term_layout, unicode)


def _term_layout(t: Term, unicode: bool) -> tuple:
    """A surface term's layout for :func:`render`; derivation nodes are
    terms too."""
    if isinstance(t, Var):
        return _ATOM, constant_name(t.name)
    if isinstance(t, App):
        args = []
        while isinstance(t, App):  # the spine of an application
            args.append((t.arg, _ATOM))
            args.append(" ")
            t = t.fn
        args.append((t, _APP))
        return _APP, args[::-1]
    if isinstance(t, Lam):
        return _TOP, (f"\\{t.var}. ", (t.body, _TOP))
    if isinstance(t, Let):
        return _TOP, (f"let {t.var} = ", (t.bound, _TOP), " in ", (t.body, _TOP))
    if isinstance(t, Freeze):
        name = constant_name(t.name)
        return _ATOM, f"⌈{name}⌉" if unicode else f"~{name}"
    if isinstance(t, Lit):
        return _ATOM, str(t.value)
    if isinstance(t, LamAnn):
        return _TOP, (f"\\({t.var} : ", (t.ann, _TOP), "). ", (t.body, _TOP))
    if isinstance(t, LetAnn):
        bound = (t.bound, _TOP)
        return _TOP, (f"let ({t.var} : ", (t.ann, _TOP), ") = ", bound, " in ", (t.body, _TOP))
    if isinstance(t, Gen):
        # `$` takes an atom: a nested `$` or `@` body needs parentheses.
        nested = isinstance(t.body, (Gen, Inst))
        return _ATOM, (("$(", (t.body, _ATOM), ")") if nested else ("$", (t.body, _ATOM)))
    if isinstance(t, Inst):
        return _ATOM, ((t.body, _ATOM), "@")
    raise TypeError(f"not a term: {t!r}")
