"""Type inference for first-class polymorphism via frozen variables.

The modules are the API; the package itself imports none of them, so a
caller loads only what it uses:

- ``freezeml.syntax``: one abstract syntax for types, surface terms and
  System F terms, and the walks over it;
- ``freezeml.parser``: lexing, parsing and pretty-printing;
- ``freezeml.statics``: kinding, environment well-formedness and
  well-scopedness;
- ``freezeml.subst``: substitution on types;
- ``freezeml.unify``: unification and the store that inference shares;
- ``freezeml.infer``: type inference and its derivations;
- ``freezeml.declcheck``: the declarative typing oracle and derivation
  replay;
- ``freezeml.systemf``: the explicitly typed System F core;
- ``freezeml.translate``: the translations between the surface language
  and System F;
- ``freezeml.prelude``: the built-in environment;
- ``freezeml.cli``: the command-line front end.
"""
