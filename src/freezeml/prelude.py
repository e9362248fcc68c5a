"""The built-in environment of list, pairing, and state primitives.

All entries are axioms (no bodies).  The arithmetic operator and the
literal typing rule live alongside: list and pair syntax elaborates to
the ``::``/``[]``/``pair`` constants, and ``e + e`` to the ``+``
constant, keeping the calculus free of special-cased forms.

:func:`build_prelude` parses the signatures on its first call and hands
every later caller the same environment.  Its types carry the shared
free-variable caches that :func:`freezeml.syntax.ftv_ordered` fills, so
callers must not mutate them; extend the prelude with
:meth:`~freezeml.syntax.TypeEnv.extend`, which copies.
"""

from __future__ import annotations

import functools

from .parser import parse_type
from .syntax import TypeEnv

PRELUDE_SIGNATURES: tuple[tuple[str, str], ...] = (
    ("head", "forall a. [a] -> a"),
    ("tail", "forall a. [a] -> [a]"),
    ("[]", "forall a. [a]"),
    ("::", "forall a. a -> [a] -> [a]"),
    ("single", "forall a. a -> [a]"),
    ("++", "forall a. [a] -> [a] -> [a]"),
    ("length", "forall a. [a] -> Int"),
    ("id", "forall a. a -> a"),
    ("ids", "[forall a. a -> a]"),
    ("inc", "Int -> Int"),
    ("choose", "forall a. a -> a -> a"),
    ("poly", "(forall a. a -> a) -> (Int, Bool)"),
    ("auto", "(forall a. a -> a) -> (forall a. a -> a)"),
    ("auto'", "forall b. (forall a. a -> a) -> (b -> b)"),
    ("map", "forall a b. (a -> b) -> [a] -> [b]"),
    ("app", "forall a b. (a -> b) -> a -> b"),
    ("revapp", "forall a b. a -> (a -> b) -> b"),
    ("runST", "forall a. (forall s. ST s a) -> a"),
    ("argST", "forall s. ST s Int"),
    ("pair", "forall a b. a -> b -> (a, b)"),
    ("pair'", "forall b a. a -> b -> (a, b)"),
)

# Not part of the signature table: arithmetic support for examples that
# add integers.
EXTRA_SIGNATURES: tuple[tuple[str, str], ...] = (
    ("+", "Int -> Int -> Int"),
)


@functools.cache
def build_prelude() -> TypeEnv:
    entries = PRELUDE_SIGNATURES + EXTRA_SIGNATURES
    return TypeEnv((name, parse_type(source)) for name, source in entries)
