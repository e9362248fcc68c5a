"""The recursive ``alpha_eq`` that ``freezeml.syntax.alpha_eq`` replaced.

Kept verbatim as the oracle for the differential property in
``test_syntax.py``: on any pair of types the explicit-stack walk must
give the same answer.  It recurses once per type node, so it raises
``RecursionError`` on types deeper than the recursion limit.  Nothing in
the package uses it.
"""

from __future__ import annotations

from freezeml.syntax import Con, Forall, TVar, Type


def alpha_eq(a: Type, b: Type) -> bool:
    """Equality up to consistent renaming of quantifier-bound variables.

    Free variables are rigid: they must agree by name.  The order of
    quantifiers matters, so ``forall a b. a -> b`` differs from
    ``forall b a. a -> b``.
    """

    def walk(x: Type, y: Type, bx: tuple[str, ...], by: tuple[str, ...]) -> bool:
        if x is y and bx == by:
            # One node under the same binders; shared subtrees are common.
            return True
        if isinstance(x, TVar) and isinstance(y, TVar):
            # Innermost binder position must coincide, or both free.
            for i, (na, nb) in enumerate(zip(reversed(bx), reversed(by))):
                hit_a = na == x.name
                hit_b = nb == y.name
                if hit_a or hit_b:
                    return hit_a and hit_b
            return x.name == y.name
        if isinstance(x, Con) and isinstance(y, Con):
            if x.con != y.con:
                return False
            return all(walk(p, q, bx, by) for p, q in zip(x.args, y.args))
        if isinstance(x, Forall) and isinstance(y, Forall):
            return walk(x.body, y.body, bx + (x.var,), by + (y.var,))
        return False

    return walk(a, b, (), ())
