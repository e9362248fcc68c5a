"""Judgements and shorthands on substitutions that only the tests use.

A substitution is what the checker hands back: a ``dict`` from
type-variable names to types, applied simultaneously.  ``subst_wf`` is
the paper's well-formedness judgement for flexible substitutions, the
oracle for the soundness properties of unification and inference;
``inst_wf`` is its judgement for instantiations, the oracle for replay's
Var rule, which checks each image's kind instead; ``demote`` is the
paper's demotion of a refined kind environment; ``kind_le`` is the kind
order mono <= poly that both judgements read.  The checker itself never
builds any of them: it records solutions in a store and checks kinds as
it solves.

``Subst``, the substitution with explicit composition, is the reference
the tests compose against; they import it from here, not from the
package, whose checker does not use it.
"""

from __future__ import annotations

from typing import Iterable

from freezeml.statics import StaticsError, kind_of
from freezeml.subst import Subst
from freezeml.syntax import Kind, KindEnv, TVar, Type

__all__ = ["Subst", "demote", "identity", "inst_wf", "is_identity", "kind_le", "subst_wf"]


def kind_le(kind: Kind, other: Kind) -> bool:
    """The kind order: mono <= poly, and each kind is below itself."""
    return kind is other or (kind is Kind.MONO and other is Kind.POLY)


def identity(names: Iterable[str]) -> dict[str, Type]:
    """The substitution mapping each listed variable to itself."""
    return {n: TVar(n) for n in names}


def is_identity(theta: dict[str, Type]) -> bool:
    return theta == identity(theta)


def inst_wf(
    delta: KindEnv,
    inst: dict[str, Type],
    delta_in: KindEnv,
    kind: Kind,
    delta_out: KindEnv,
) -> bool:
    """Does inst map each rigid variable of delta_in to a type of kind at
    most `kind` over delta, delta_out?"""
    rigid = set(delta.names())
    if rigid & set(delta_in.names()) or rigid & set(delta_out.names()):
        return False
    if set(inst) != set(delta_in.names()):
        return False
    env = KindEnv(delta.names() + delta_out.names())
    for name in delta_in:
        try:
            if not kind_le(kind_of(env, inst[name]), kind):
                return False
        except StaticsError:
            return False
    return True


def subst_wf(
    delta: KindEnv,
    theta: dict[str, Type],
    theta_in: dict[str, Kind],
    theta_out: dict[str, Kind],
) -> bool:
    """Does theta map each flexible variable of theta_in to a type of its
    kind over delta, theta_out?"""
    rigid = set(delta.names())
    if not rigid.isdisjoint(theta_in) or not rigid.isdisjoint(theta_out):
        return False
    if set(theta) != set(theta_in):
        return False
    # Δ and Θ' are disjoint (checked above), so joining them conflates nothing.
    env = {**dict.fromkeys(delta, Kind.MONO), **theta_out}
    for name, kind in theta_in.items():
        try:
            if not kind_le(kind_of(env, theta[name]), kind):
                return False
        except StaticsError:
            return False
    return True


def demote(kind: Kind, theta: dict[str, Kind], names: Iterable[str]) -> dict[str, Kind]:
    """Force the listed flexible variables down to the monomorphic kind.

    Demoting at poly is the identity; demotion never changes which
    variables are present.
    """
    if kind is Kind.POLY:
        return theta
    targets = set(names)
    return {n: Kind.MONO if n in targets else k for n, k in theta.items()}
