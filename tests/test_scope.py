"""Scoping in every typing walk.

Inference, derivation replay, the System F checker and the F importer
each keep Γ in one :class:`freezeml.syntax.Scope` per call, pushed at a
binder and popped after it.  These tests pin what that must preserve:
the innermost binding wins, a popped binding is gone, a walk that fails
inside a binder leaves nothing behind for the next walk, and the shared
prelude is never changed.
"""

from dataclasses import replace

import pytest

from freezeml.declcheck import ReplayError, replay
from freezeml.infer import InferError, UnboundVar, check_program
from freezeml.parser import parse_program, parse_type, render_term
from freezeml.prelude import build_prelude
from freezeml.syntax import Freeze, KindEnv, LamAnn, Scope, TypeEnv, alpha_eq
from freezeml.systemf import FUnboundVar, NotAFunction, f_typecheck, parse_fterm
from freezeml.translate import from_systemf, rebuild_derivation

PRELUDE = build_prelude()
EMPTY = KindEnv()
NONE = TypeEnv()


def ty(src: str):
    return parse_type(src)


class TestScope:
    def test_innermost_binding_wins_until_popped(self):
        scope = Scope([("x", ty("Int")), ("y", ty("Bool"))])
        scope.push("x", ty("Bool"))
        assert scope.lookup("x") == ty("Bool")
        scope.pop("x")
        assert scope.lookup("x") == ty("Int")
        scope.pop("x")
        assert scope.lookup("x") is None
        assert scope.lookup("y") == ty("Bool")

    def test_later_entries_of_the_input_shadow_earlier_ones(self):
        scope = Scope(NONE.extend("x", ty("Int")).extend("x", ty("Bool")))
        assert scope.lookup("x") == ty("Bool")
        assert scope.lookup("z") is None


class TestShadowedBinder:
    def test_f_typecheck(self):
        t = parse_fterm("\\x:Int. \\x:Bool. x")
        assert alpha_eq(f_typecheck(EMPTY, NONE, t), ty("Int -> Bool -> Bool"))

    def test_import_encoding_infers_the_same_type(self):
        encoded = from_systemf(EMPTY, NONE, parse_fterm("\\x:Int. \\x:Bool. x"))
        assert alpha_eq(check_program(EMPTY, NONE, encoded).ty, ty("Int -> Bool -> Bool"))

    def test_replay(self):
        derivation = rebuild_derivation(
            EMPTY, NONE, parse_program("\\(x : Int). \\(x : Bool). x")
        )
        assert alpha_eq(replay(EMPTY, NONE, derivation), ty("Int -> Bool -> Bool"))

    def test_replay_rejects_the_outer_binding(self):
        derivation = rebuild_derivation(
            EMPTY, NONE, parse_program("\\(x : Int). \\(x : Bool). x")
        )
        inner = derivation.body
        outer_read = replace(
            derivation,
            body=replace(inner, body=replace(inner.body, ty=ty("Int")), ty=ty("Bool -> Int")),
            ty=ty("Int -> Bool -> Int"),
        )
        with pytest.raises(ReplayError, match="^DVar: recorded type is not"):
            replay(EMPTY, NONE, outer_read)


class TestPoppedBinder:
    """Under an empty Γ, the argument `x` of `(\\x. x) x` is unbound."""

    def test_f_typecheck(self):
        with pytest.raises(FUnboundVar, match="'x'"):
            f_typecheck(EMPTY, NONE, parse_fterm("(\\x:Int. x) x"))

    def test_from_systemf(self):
        with pytest.raises(FUnboundVar, match="'x'"):
            from_systemf(EMPTY, NONE, parse_fterm("(\\x:Int. x) x"))

    def test_from_systemf_reads_the_outer_binding_after_a_redex(self):
        # The argument's `id` is the prelude's, instantiated at Int.
        t = parse_fterm("(\\id:Int. id) (id [Int] 1)")
        encoded = from_systemf(EMPTY, PRELUDE, t)
        assert alpha_eq(check_program(EMPTY, PRELUDE, encoded).ty, ty("Int"))

    @pytest.mark.parametrize("binder", [
        "\\x. x", "\\(x : Int). x", "let x = 1 in x", "let (x : Int) = 1 in x",
    ])
    def test_infer(self, binder):
        with pytest.raises(UnboundVar, match="'x'"):
            check_program(EMPTY, NONE, parse_program(f"({binder}) x"))

    def test_replay(self):
        source = parse_program("(\\(x : Int). x) x")
        derivation = rebuild_derivation(EMPTY, NONE.extend("x", ty("Int")), source)
        with pytest.raises(ReplayError, match="^DVar: unbound variable 'x'$"):
            replay(EMPTY, NONE, derivation)


class TestFailedWalkLeavesThePreludeAlone:
    """Each walk fails with the prelude's `id` shadowed by `id : Int`;
    the next walk on the same shared prelude reads the prelude's `id`."""

    ID = ty("forall a. a -> a")

    def test_f_typecheck_and_from_systemf(self):
        before = list(PRELUDE)
        with pytest.raises(NotAFunction):
            f_typecheck(EMPTY, PRELUDE, parse_fterm("\\id:Int. id id"))
        with pytest.raises(NotAFunction):
            from_systemf(EMPTY, PRELUDE, parse_fterm("\\id:Int. id id"))
        assert alpha_eq(f_typecheck(EMPTY, PRELUDE, parse_fterm("id")), self.ID)
        assert from_systemf(EMPTY, PRELUDE, parse_fterm("id")) == Freeze("id")
        assert list(PRELUDE) == before

    def test_infer_and_replay(self):
        before = list(PRELUDE)
        with pytest.raises(InferError):
            check_program(EMPTY, PRELUDE, parse_program("\\(id : Int). id id"))
        derivation = rebuild_derivation(EMPTY, PRELUDE, parse_program("\\(id : Int). id"))
        broken = replace(derivation, body=replace(derivation.body, ty=ty("Bool")))
        with pytest.raises(ReplayError):
            replay(EMPTY, PRELUDE, broken)
        assert alpha_eq(check_program(EMPTY, PRELUDE, parse_program("~id")).ty, self.ID)
        good = rebuild_derivation(EMPTY, PRELUDE, parse_program("~id"))
        assert alpha_eq(replay(EMPTY, PRELUDE, good), self.ID)
        assert list(PRELUDE) == before


def test_import_binds_over_the_prelude():
    encoded = from_systemf(EMPTY, PRELUDE, parse_fterm("\\id:Int. id"))
    assert encoded == LamAnn("id", ty("Int"), Freeze("id"))
    assert render_term(encoded) == "\\(id : Int). ~id"
    assert alpha_eq(check_program(EMPTY, PRELUDE, encoded).ty, ty("Int -> Int"))
