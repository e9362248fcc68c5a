"""Explicitly typed call-by-value System F: AST, typechecker, printer.

Types are shared with the surface language.  Type abstractions are
value-restricted: their bodies must be syntactic values, where values
are lambdas, type abstractions, literals, and instantiations (a
variable under zero or more type applications).

``let x^A = M in N`` is sugar for ``(\\x:A. N) M``; the derived let
typing rule holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .parser import SyntaxError_, _Parser, render_type
from .statics import StaticsError, check_kind
from .subst import Subst
from .syntax import (
    Con,
    Forall,
    Kind,
    KindEnv,
    TVar,
    Type,
    TypeEnv,
    alpha_eq,
    arrow,
    t_bool,
    t_int,
)


class FTerm:
    __slots__ = ()


@dataclass(frozen=True)
class FVar(FTerm):
    name: str


@dataclass(frozen=True)
class FLit(FTerm):
    value: Union[int, bool]

    @property
    def type(self) -> Type:
        return t_bool if isinstance(self.value, bool) else t_int


@dataclass(frozen=True)
class FLam(FTerm):
    var: str
    ann: Type
    body: FTerm


@dataclass(frozen=True)
class FApp(FTerm):
    fn: FTerm
    arg: FTerm


@dataclass(frozen=True)
class FTyAbs(FTerm):
    var: str
    body: FTerm


@dataclass(frozen=True)
class FTyApp(FTerm):
    fn: FTerm
    arg: Type


def f_let(var: str, ann: Type, bound: FTerm, body: FTerm) -> FTerm:
    return FApp(FLam(var, ann, body), bound)


def f_tyabs_many(names, body: FTerm) -> FTerm:
    result = body
    for name in reversed(tuple(names)):
        result = FTyAbs(name, result)
    return result


def f_tyapp_many(fn: FTerm, args) -> FTerm:
    result = fn
    for arg in args:
        result = FTyApp(result, arg)
    return result


def is_instantiation(t: FTerm) -> bool:
    while isinstance(t, FTyApp):
        t = t.fn
    return isinstance(t, (FVar, FLit))


def is_f_value(t: FTerm) -> bool:
    return isinstance(t, (FLam, FTyAbs)) or is_instantiation(t)


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
        super().__init__(
            f"expected {render_type(expected, normalize=False)}, "
            f"got {render_type(got, normalize=False)}"
        )
        self.expected = expected
        self.got = got


class ValueRestriction(FTypeError):
    pass


def f_typecheck(delta: KindEnv, gamma: TypeEnv, t: FTerm) -> Type:
    """Unique type of `t`, or a typed failure.

    System F kinding is the single-kind fixed judgement: every type
    variable in scope classifies, and the poly/mono refinement plays no
    role here.
    """
    if isinstance(t, FVar):
        ty = gamma.lookup(t.name)
        if ty is None:
            raise FUnboundVar(f"unbound variable {t.name!r}")
        return ty
    if isinstance(t, FLit):
        return t.type
    if isinstance(t, FLam):
        try:
            check_kind(delta, t.ann, Kind.POLY)
        except StaticsError as err:
            raise FTypeError(str(err)) from None
        body_ty = f_typecheck(delta, gamma.extend(t.var, t.ann), t.body)
        return arrow(t.ann, body_ty)
    if isinstance(t, FApp):
        fn_ty = f_typecheck(delta, gamma, t.fn)
        arg_ty = f_typecheck(delta, gamma, t.arg)
        if not (isinstance(fn_ty, Con) and fn_ty.con.name == "->"):
            raise NotAFunction(
                f"cannot apply a term of type {render_type(fn_ty, normalize=False)}"
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
        body_ty = f_typecheck(delta.extend(t.var), gamma, t.body)
        return Forall(t.var, body_ty)
    if isinstance(t, FTyApp):
        fn_ty = f_typecheck(delta, gamma, t.fn)
        if not isinstance(fn_ty, Forall):
            raise NotAForall(
                f"cannot instantiate a term of type {render_type(fn_ty, normalize=False)}"
            )
        try:
            check_kind(delta, t.arg, Kind.POLY)
        except StaticsError as err:
            raise FTypeError(str(err)) from None
        return Subst({fn_ty.var: t.arg}).apply(fn_ty.body)
    raise TypeError(f"not an F term: {t!r}")


# ---------------------------------------------------------------------------
# Printing and parsing (used by the CLI elaborate/import commands)
# ---------------------------------------------------------------------------

_TOP, _APP, _ATOM = range(3)


def render_fterm(t: FTerm, unicode: bool = False) -> str:
    """Print `t` in the grammar :func:`parse_fterm` reads.

    Works on an explicit stack, so deeply nested terms (long let chains
    in particular) print without exhausting the interpreter's stack.
    """
    lam = "λ" if unicode else "\\"
    tyabs = "Λ" if unicode else "/\\"

    def ty(a: Type) -> str:
        return render_type(a, normalize=False, unicode=unicode)

    pieces: list[str] = []
    # Each entry is text to emit or (level, term); the levels are the
    # grammar's three: top (binders), app (spines), atom.
    stack: list = [(_TOP, t)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        level, x = item
        if level == _TOP:
            if isinstance(x, FLam):
                pieces.append(f"{lam}{x.var}:{ty(x.ann)}. ")
                stack.append((_TOP, x.body))
                continue
            if isinstance(x, FTyAbs):
                names = []
                while isinstance(x, FTyAbs):
                    names.append(x.var)
                    x = x.body
                pieces.append(f"{tyabs}{' '.join(names)}. ")
                stack.append((_TOP, x))
                continue
            level = _APP
        if level == _APP:
            if isinstance(x, FApp):
                stack.extend(((_ATOM, x.arg), " ", (_APP, x.fn)))
                continue
            if isinstance(x, FTyApp):
                stack.extend((f" [{ty(x.arg)}]", (_APP, x.fn)))
                continue
        if isinstance(x, FVar):
            pieces.append(x.name)
        elif isinstance(x, FLit):
            if x.value is True:
                pieces.append("True")
            elif x.value is False:
                pieces.append("False")
            else:
                pieces.append(str(x.value))
        else:
            pieces.append("(")
            stack.extend((")", (_TOP, x)))
    return "".join(pieces)


def parse_fterm(text: str) -> FTerm:
    parser = _FParser(text)
    term = parser.fterm()
    tok = parser.peek()
    if tok.kind != "eof":
        raise SyntaxError_(f"unexpected {tok.text!r}", tok.span)
    return term


class _FParser(_Parser):
    """Parses the printer grammar: /\\a. V, \\x:T. M, M N, M [T]."""

    def fterm(self) -> FTerm:
        self._enter()
        try:
            if self.at_punct("\\"):
                self.advance()
                name = self.expect_ident()
                self.expect_punct(":")
                ann = self.type_()
                self.expect_punct(".")
                return FLam(name.text, ann, self.fterm())
            if self.at_punct("/\\"):
                self.advance()
                names = [self.expect_ident().text]
                while not self.at_punct("."):
                    names.append(self.expect_ident().text)
                self.expect_punct(".")
                return f_tyabs_many(names, self.fterm())
            return self.fapp()
        finally:
            self._exit()

    def fapp(self) -> FTerm:
        result = self.fatom()
        while True:
            if self.at_punct("["):
                self.advance()
                ty = self.type_()
                self.expect_punct("]")
                result = FTyApp(result, ty)
                continue
            tok = self.peek()
            if tok.kind in ("ident", "int") and tok.text not in ("in", "let"):
                result = FApp(result, self.fatom())
                continue
            if self.at_punct("("):
                result = FApp(result, self.fatom())
                continue
            return result

    def fatom(self) -> FTerm:
        self._enter()
        try:
            tok = self.peek()
            if tok.kind == "int":
                self.advance()
                return FLit(int(tok.text))
            if self.at_ident("True"):
                self.advance()
                return FLit(True)
            if self.at_ident("False"):
                self.advance()
                return FLit(False)
            if tok.kind == "ident":
                name = self.expect_ident()
                return FVar(name.text)
            if self.at_punct("("):
                self.advance()
                inner = self.fterm()
                self.expect_punct(")")
                return inner
            raise SyntaxError_(f"expected an F term, found {tok.text!r}", tok.span)
        finally:
            self._exit()
