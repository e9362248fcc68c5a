"""Explicitly typed call-by-value System F: typechecker, printer, parser.

The AST is :mod:`freezeml.syntax`'s: a variable is a frozen variable
``~x`` (its type is its binding's, as written), and literals, annotated
lambdas and applications are the surface language's nodes, so the parts
of a core term the translations keep are one object in both languages.
Type abstraction and application are the two F-only nodes,
:class:`FTyAbs` and :class:`FTyApp`.  The names ``FVar``, ``FLit``,
``FLam``, ``FApp`` and ``FTerm`` are System F's names for the shared
classes.  Types are shared with the surface language.

Type abstractions are value-restricted: their bodies must be syntactic
values, where values are lambdas, type abstractions, literals,
instantiations (a variable under zero or more type applications), and
value redexes ``(\\x:A. V) W`` whose body `V` and argument `W` are
values.  The redex is the image of the surface value
``let x = W in V``: a pure, terminating step, so admitting it is the
nonexpansive reading of the value restriction (Wright 1995; Garrigue,
"Relaxing the value restriction", 2004) and this implementation's
choice.

``let x^A = M in N`` is sugar for ``(\\x:A. N) M``; the derived let
typing rule holds by construction.
"""

from __future__ import annotations

from typing import Optional

from .parser import _APP, _ATOM, _TOP, _Parser, constant_name, render, render_type
from .statics import StaticsError, kind_of
from .subst import instantiate
from .syntax import (
    App,
    Con,
    Forall,
    Freeze,
    FTyAbs,
    FTyApp,
    KindEnv,
    LamAnn,
    Lit,
    Scope,
    Term,
    Type,
    TypeEnv,
    Walk,
    alpha_eq,
    arrow,
    trampoline,
)

FTerm = Term
FVar = Freeze
FLit = Lit
FLam = LamAnn
FApp = App


def f_let(var: str, ann: Type, bound: Term, body: Term) -> Term:
    return App(LamAnn(var, ann, body), bound)


def f_tyabs_many(names, body: Term) -> Term:
    result = body
    for name in reversed(tuple(names)):
        result = FTyAbs(name, result)
    return result


def is_instantiation(t: Term) -> bool:
    while isinstance(t, FTyApp):
        t = t.fn
    return isinstance(t, (Freeze, Lit))


def is_f_value(t: Term) -> bool:
    """Is `t` a value?  One walk over the value redexes of `t`, on an
    explicit stack; it stops at lambdas and type abstractions."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, App) and isinstance(t.fn, LamAnn):
            stack += (t.fn.body, t.arg)
        elif not (isinstance(t, (LamAnn, FTyAbs)) or is_instantiation(t)):
            return False
    return True


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------

class FTypeError(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class FUnboundVar(FTypeError):
    pass


class NotAFunction(FTypeError):
    pass


class NotAForall(FTypeError):
    pass


class TypeMismatch(FTypeError):
    def __init__(self, expected: Type, got: Type):
        super().__init__(f"expected {render_type(expected)}, got {render_type(got)}")
        self.expected = expected
        self.got = got


class ValueRestriction(FTypeError):
    pass


def f_typecheck(delta: KindEnv, gamma: TypeEnv, t: Term) -> Type:
    """Unique type of `t`, or a typed failure.

    System F kinding is the single-kind fixed judgement: every type
    variable in scope classifies, and the poly/mono refinement plays no
    role here.  Γ is held in one :class:`freezeml.syntax.Scope` for the
    walk, built from `gamma`: each lambda pushes its variable for its
    body and pops it after.  One memo, made for this call and passed
    down the walk, builds the instance of each distinct pair of a
    quantified type and a type argument once (see
    :func:`freezeml.subst.instantiate`); its values hold both objects.
    Every type application still has its argument kinded, and every
    application compares its argument's type with the function's.
    """
    scope = Scope(gamma)
    return _f_leaf_type(scope, t) or trampoline(_f_typecheck(delta, scope, t, {}))


def _f_leaf_type(gamma: Scope, t: Term) -> Optional[Type]:
    if isinstance(t, Freeze):
        ty = gamma.lookup(t.name)
        if ty is None:
            raise FUnboundVar(f"unbound variable {t.name!r}")
        return ty
    return t.type if isinstance(t, Lit) else None


def _f_typecheck(delta: KindEnv, gamma: Scope, t: Term, memo: dict) -> Walk:
    if isinstance(t, LamAnn):
        try:
            kind_of(delta, t.ann)
        except StaticsError as err:
            raise FTypeError(str(err)) from None
        gamma.push(t.var, t.ann)
        body_ty = _f_leaf_type(gamma, t.body) or (yield _f_typecheck(delta, gamma, t.body, memo))
        gamma.pop(t.var)
        return arrow(t.ann, body_ty)
    if isinstance(t, App):
        fn_ty = _f_leaf_type(gamma, t.fn) or (yield _f_typecheck(delta, gamma, t.fn, memo))
        arg_ty = _f_leaf_type(gamma, t.arg) or (yield _f_typecheck(delta, gamma, t.arg, memo))
        if not (isinstance(fn_ty, Con) and fn_ty.con.name == "->"):
            raise NotAFunction(
                f"cannot apply a term of type {render_type(fn_ty)}"
            )
        if not alpha_eq(fn_ty.args[0], arg_ty):
            raise TypeMismatch(fn_ty.args[0], arg_ty)
        return fn_ty.args[1]
    if isinstance(t, FTyAbs):
        if not is_f_value(t.body):
            raise ValueRestriction(
                "the body of a type abstraction must be a syntactic value"
            )
        if t.var in delta:
            raise FTypeError(
                f"type abstraction rebinds {t.var!r}, already in scope"
            )
        inner = delta.extend(t.var)
        body_ty = _f_leaf_type(gamma, t.body) or (yield _f_typecheck(inner, gamma, t.body, memo))
        return Forall(t.var, body_ty)
    if isinstance(t, FTyApp):
        fn_ty = _f_leaf_type(gamma, t.fn) or (yield _f_typecheck(delta, gamma, t.fn, memo))
        if not isinstance(fn_ty, Forall):
            raise NotAForall(
                f"cannot instantiate a term of type {render_type(fn_ty)}"
            )
        try:
            kind_of(delta, t.arg)
        except StaticsError as err:
            raise FTypeError(str(err)) from None
        return instantiate(fn_ty, (t.arg,), memo)
    raise TypeError(f"not an F term: {t!r}")


# ---------------------------------------------------------------------------
# Printing and parsing (used by the CLI elaborate/import commands)
# ---------------------------------------------------------------------------

def render_fterm(t: Term, unicode: bool = False) -> str:
    """Print `t` in the grammar :func:`parse_fterm` reads."""
    return render(t, _fterm_layout, unicode)


def _fterm_layout(t: Term, unicode: bool) -> tuple:
    """An F term's layout for :func:`freezeml.parser.render`."""
    if isinstance(t, Freeze):
        return _ATOM, constant_name(t.name)
    if isinstance(t, App):
        return _APP, ((t.fn, _APP), " ", (t.arg, _ATOM))
    if isinstance(t, FTyApp):
        return _APP, ((t.fn, _APP), " [", (t.arg, _TOP), "]")
    if isinstance(t, LamAnn):
        lam = "λ" if unicode else "\\"
        return _TOP, (f"{lam}{t.var}:", (t.ann, _TOP), ". ", (t.body, _TOP))
    if isinstance(t, FTyAbs):
        names = []
        while isinstance(t, FTyAbs):
            names.append(t.var)
            t = t.body
        return _TOP, (("Λ" if unicode else "/\\") + " ".join(names) + ". ", (t, _TOP))
    if isinstance(t, Lit):
        return _ATOM, str(t.value)
    raise TypeError(f"not an F term: {t!r}")


def parse_fterm(text: str) -> Term:
    parser = _FParser(text)
    term = trampoline(parser.term())
    parser.expect_end()
    return term


class _FParser(_Parser):
    """The printer's grammar, ``/\\a. V``, ``\\x:T. M``, ``M N`` and
    ``M [T]``: the shared term parser with System F's hooks."""

    variable = Freeze
    argument_puncts = ("(",)
    not_arguments = ("in", "let")
    a_term = "an F term"

    def node_span(self, at) -> None:
        return None  # F terms carry no span

    def term(self) -> Walk:
        if self.at_punct("\\"):
            self.advance()
            name = self.expect_ident()
            self.expect_punct(":")
            ann = yield self.type_()
            return (yield from self.abstraction([(name.text, ann, None)]))
        if self.at_punct("/\\"):
            return (yield from self.lam(lambda: (self.expect_ident().text, None, None)))
        return (yield from self.app_chain())

    def abstract(self, name: str, ann: Optional[Type], body: Term, span) -> Term:
        return FTyAbs(name, body) if ann is None else LamAnn(name, ann, body)

    def argument(self) -> Walk:
        return self.leaf() or (yield from self.parenthesised())

    def grouped(self) -> Walk:
        return self.term()

    def applied(self, fn: Term) -> Optional[Term]:
        """`fn [T]`."""
        if not self.at_punct("["):
            return None
        self.advance()
        ty = trampoline(self.type_())
        self.expect_punct("]")
        return FTyApp(fn, ty)
