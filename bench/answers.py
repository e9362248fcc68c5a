"""Known answers, kept apart from the code under test.

Types printed by the checker are compared with the expected types by
parsing both with the small parser below and comparing canonical forms:
bound variables become de Bruijn indices (so quantifier order still
matters) and free variables are numbered in order of first occurrence.
Nothing here calls into ``freezeml``; the answers come from the corpus
column and from the way each input was built.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\s*(->|[A-Za-z_%][A-Za-z0-9_']*|\d+|[()\[\],.:~$@+\\/;=]|\S)")


def tokens(text: str) -> list[str]:
    """Lexical tokens of a printed type or term (whitespace dropped)."""
    return _TOKEN.findall(text)


class ParseError(ValueError):
    pass


def parse_type(text: str):
    """Parse the ASCII type syntax the checker prints and the corpus uses.

    Returns a tree of ``("var", name)``, ``("con", name, args)`` and
    ``("forall", name, body)``.
    """
    toks = tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else ""

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r} in {text!r}")
        pos += 1
        return tok

    def top():
        if peek() == "forall":
            take()
            names = []
            while peek() != ".":
                names.append(take())
            take(".")
            body = top()
            for name in reversed(names):
                body = ("forall", name, body)
            return body
        return arrow()

    def arrow():
        left = applied()
        if peek() == "->":
            take()
            return ("con", "->", (left, arrow()))
        return left

    def applied():
        if peek() == "ST":
            take()
            return ("con", "ST", (atom(), atom()))
        return atom()

    def atom():
        tok = take()
        if tok in ("Int", "Bool"):
            return ("con", tok, ())
        if tok == "[":
            elem = top()
            take("]")
            return ("con", "List", (elem,))
        if tok == "(":
            first = top()
            if peek() == ",":
                take()
                second = top()
                take(")")
                return ("con", "Pair", (first, second))
            take(")")
            return first
        if re.fullmatch(r"[A-Za-z_%][A-Za-z0-9_']*", tok) and tok != "forall":
            return ("var", tok)
        raise ParseError(f"unexpected {tok!r} in {text!r}")

    tree = top()
    if pos != len(toks):
        raise ParseError(f"trailing {peek()!r} in {text!r}")
    return tree


def of_type_object(t):
    """Tree of a ``freezeml`` type value, read field by field."""
    kind = type(t).__name__
    if kind == "TVar":
        return ("var", t.name)
    if kind == "Con":
        return ("con", t.con.name, tuple(of_type_object(a) for a in t.args))
    if kind == "Forall":
        return ("forall", t.var, of_type_object(t.body))
    raise TypeError(f"not a type: {t!r}")


def canonical(tree, ground: bool = False):
    """Canonical form; with `ground`, free variables become Int."""
    free: dict[str, int] = {}

    def go(t, bound):
        tag = t[0]
        if tag == "var":
            name = t[1]
            if name in bound:
                return ("b", _debruijn(bound, name))
            if ground:
                return ("con", "Int", ())
            return ("f", free.setdefault(name, len(free)))
        if tag == "con":
            return ("con", t[1], tuple(go(a, bound) for a in t[2]))
        return ("forall", go(t[2], bound + (t[1],)))

    return go(tree, ())


def _debruijn(bound: tuple, name: str) -> int:
    """Distance from the innermost binder of `name`."""
    for distance, candidate in enumerate(reversed(bound)):
        if candidate == name:
            return distance
    raise KeyError(name)


def render(canon) -> str:
    """Print a canonical form in the checker's input syntax."""

    def top(t, depth):
        if t[0] == "forall":
            names = []
            while t[0] == "forall":
                names.append(f"t{depth}")
                depth += 1
                t = t[1]
            return f"forall {' '.join(names)}. {arrow(t, depth)}"
        return arrow(t, depth)

    def arrow(t, depth):
        if t[0] == "con" and t[1] == "->":
            return f"{applied(t[2][0], depth)} -> {arrow(t[2][1], depth)}"
        return applied(t, depth)

    def applied(t, depth):
        if t[0] == "con" and t[1] == "ST":
            return f"ST {atom(t[2][0], depth)} {atom(t[2][1], depth)}"
        return atom(t, depth)

    def atom(t, depth):
        tag = t[0]
        if tag == "b":
            return f"t{depth - 1 - t[1]}"
        if tag == "f":
            return f"f{t[1]}"
        if tag == "con" and t[1] in ("Int", "Bool"):
            return t[1]
        if tag == "con" and t[1] == "List":
            return f"[{top(t[2][0], depth)}]"
        if tag == "con" and t[1] == "Pair":
            return f"({top(t[2][0], depth)}, {top(t[2][1], depth)})"
        return f"({top(t, depth)})"

    return top(canon, 0)


def answer(text: str, ground: bool = False) -> str:
    """The canonical answer for a type written as text, as a string."""
    return render(canonical(parse_type(text), ground))


def matches(printed: str, expected: str) -> bool:
    """Does a printed type equal an answer made by :func:`answer`?"""
    try:
        return answer(printed) == expected
    except ParseError:
        return False
