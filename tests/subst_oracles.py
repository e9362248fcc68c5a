"""Judgements and shorthands on substitutions that only the tests use.

``subst_wf`` is the paper's well-formedness judgement for flexible
substitutions, the oracle for the soundness properties of unification
and inference; ``inst_wf`` is its judgement for instantiations, the
oracle for replay's Var rule, which checks each image's kind instead;
``demote`` is the paper's demotion of a refined kind environment.  The
checker itself never builds any of them: it records solutions in a
store and checks kinds as it solves.
"""

from __future__ import annotations

from typing import Iterable

from freezeml.statics import StaticsError, kind_of
from freezeml.subst import Subst
from freezeml.syntax import Kind, KindEnv, RefinedKindEnv, TVar


def identity(names: Iterable[str]) -> Subst:
    """The substitution mapping each listed variable to itself."""
    return Subst((n, TVar(n)) for n in names)


def is_identity(theta: Subst) -> bool:
    return theta == identity(theta.domain())


def inst_wf(
    delta: KindEnv,
    inst: Subst,
    delta_in: KindEnv,
    kind: Kind,
    delta_out: KindEnv,
) -> bool:
    """Does inst map each rigid variable of delta_in to a type of kind at
    most `kind` over delta, delta_out?"""
    rigid = set(delta.names())
    if rigid & set(delta_in.names()) or rigid & set(delta_out.names()):
        return False
    if set(inst.domain()) != set(delta_in.names()):
        return False
    env = KindEnv(delta.names() + delta_out.names())
    for name in delta_in:
        image = inst.lookup(name)
        try:
            if not kind_of(env, image).le(kind):
                return False
        except StaticsError:
            return False
    return True


def subst_wf(
    delta: KindEnv,
    theta: Subst,
    theta_in: RefinedKindEnv,
    theta_out: RefinedKindEnv,
) -> bool:
    """Does theta map each flexible variable of theta_in to a type of its
    kind over delta, theta_out?"""
    rigid = set(delta.names())
    if rigid & set(theta_in.names()) or rigid & set(theta_out.names()):
        return False
    if set(theta.domain()) != set(theta_in.names()):
        return False
    env = RefinedKindEnv((*RefinedKindEnv.of_kind_env(delta), *theta_out))
    for name, kind in theta_in:
        image = theta.lookup(name)
        try:
            if not kind_of(env, image).le(kind):
                return False
        except StaticsError:
            return False
    return True


def demote(kind: Kind, theta: RefinedKindEnv, names: Iterable[str]) -> RefinedKindEnv:
    """Force the listed flexible variables down to the monomorphic kind.

    Demoting at poly is the identity; demotion never changes which
    variables are present.
    """
    if kind is Kind.POLY:
        return theta
    targets = set(names)
    return RefinedKindEnv(
        (n, Kind.MONO if n in targets else k) for n, k in theta
    )
