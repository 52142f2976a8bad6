"""Reference computations made apart from fvlogic, used to check its outputs.

Nothing here imports fvlogic. Structures arrive as documents in the `fv`
structure file format, formulas and Boolean sentences as the program's
syntax trees, which are read by node class name and field.

- `CoreProduct` evaluates restricted [0,1]-valued formulas on the product
  of the core coordinates of a family. On a finite index set the ideal is
  P(S*), and the reduced product over it is that product with the max
  metric, max predicates and coordinatewise functions and constants.
- `brute_sat` decides a Boolean-algebra sentence on P(core) by plain
  enumeration: guarded blocks are expanded to their definition, an
  existential over all tuples of classes with the bounds as conjuncts, and
  nothing is pruned.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence


def _flatten(tensor: Any, conv: Callable[[Any], Any]) -> dict[tuple, Any]:
    if not isinstance(tensor, list):
        return {(): conv(tensor)}
    out: dict[tuple, Any] = {}
    for i, child in enumerate(tensor):
        for key, v in _flatten(child, conv).items():
            out[(i,) + key] = v
    return out


class Table:
    """One finite structure, read from its structure document."""

    def __init__(self, doc: Mapping) -> None:
        labels = [str(a) for a in doc["universe"]]
        index = {a: i for i, a in enumerate(labels)}
        self.size = len(labels)
        self.dist = [[Fraction(v) for v in row] for row in doc["dist"]]
        self.preds = {p: _flatten(t, Fraction) for p, t in doc["preds"].items()}
        self.funcs = {f: _flatten(t, lambda v: index[str(v)]) for f, t in doc.get("funcs", {}).items()}
        self.consts = {c: index[str(v)] for c, v in doc.get("consts", {}).items()}


def _free_vars(node: Any, cache: dict[int, tuple[str, ...]]) -> tuple[str, ...]:
    got = cache.get(id(node))
    if got is not None:
        return got
    kind = type(node).__name__
    if kind == "Var":
        out = {node.name}
    elif kind in ("Const", "Zero", "One"):
        out = set()
    elif kind in ("Apply", "Atomic"):
        out = set().union(*(_free_vars(a, cache) for a in node.args))
    elif kind in ("Dist", "Monus"):
        out = set(_free_vars(node.left, cache)) | set(_free_vars(node.right, cache))
    elif kind == "Half":
        out = set(_free_vars(node.body, cache))
    elif kind in ("Sup", "Inf"):
        out = set(_free_vars(node.body, cache)) - {node.var}
    else:
        raise TypeError(f"reference evaluator does not handle {kind}")
    cache[id(node)] = got = tuple(sorted(out))
    return got


class CoreProduct:
    """The product of the core coordinates' structures, evaluated exactly."""

    def __init__(self, tables: Sequence[Table]) -> None:
        if not tables:
            raise ValueError("the core of a proper ideal is never empty")
        self.tables = list(tables)
        self.points = list(itertools.product(*(range(t.size) for t in self.tables)))

    def _term(self, t: Any, env: Mapping[str, tuple]) -> tuple:
        kind = type(t).__name__
        if kind == "Var":
            return env[t.name]
        if kind == "Const":
            return tuple(tab.consts[t.name] for tab in self.tables)
        if kind == "Apply":
            args = [self._term(a, env) for a in t.args]
            return tuple(tab.funcs[t.func][tuple(a[i] for a in args)] for i, tab in enumerate(self.tables))
        raise TypeError(f"reference evaluator does not handle term {kind}")

    def value(self, f: Any, env: Mapping[str, tuple] | None = None) -> Fraction:
        fv_cache: dict[int, tuple[str, ...]] = {}
        memo: dict[tuple, Fraction] = {}
        tables = self.tables

        def go(g: Any, env: dict[str, tuple]) -> Fraction:
            key = (id(g), tuple(env[v] for v in _free_vars(g, fv_cache)))
            got = memo.get(key)
            if got is not None:
                return got
            kind = type(g).__name__
            if kind == "Zero":
                out = Fraction(0)
            elif kind == "One":
                out = Fraction(1)
            elif kind == "Atomic":
                args = [self._term(a, env) for a in g.args]
                out = max(tab.preds[g.pred][tuple(a[i] for a in args)] for i, tab in enumerate(tables))
            elif kind == "Dist":
                x, y = self._term(g.left, env), self._term(g.right, env)
                out = max(tab.dist[x[i]][y[i]] for i, tab in enumerate(tables))
            elif kind == "Half":
                out = go(g.body, env) / 2
            elif kind == "Monus":
                out = max(go(g.left, env) - go(g.right, env), Fraction(0))
            elif kind in ("Sup", "Inf"):
                vals = [go(g.body, {**env, g.var: p}) for p in self.points]
                out = max(vals) if kind == "Sup" else min(vals)
            else:
                raise TypeError(f"reference evaluator does not handle {kind}")
            memo[key] = out
            return out

        return go(f, dict(env or {}))


def core_of(ideal_doc: Mapping) -> list[str]:
    """Core of the ideal given in the `fv` ideal file format: the ground
    set minus the union of the generators, in ground-set order."""
    small = {str(g) for gen in ideal_doc.get("generators", []) for g in gen}
    return [str(g) for g in ideal_doc["omega"] if str(g) not in small]


# --------------------------------------------------------------------------
# Boolean sentences on P(core), classes as bitmasks


def brute_sat(f: Any, core_size: int, env: Mapping[str, int]) -> bool:
    """Satisfaction in the power set algebra of a core of `core_size`
    points, every class a bitmask, every quantifier enumerated in full."""
    one = (1 << core_size) - 1
    elems = range(one + 1)

    def term(t: Any, env: Mapping[str, int]) -> int:
        kind = type(t).__name__
        if kind == "BVar":
            return env[t.name]
        if kind == "BZero":
            return 0
        if kind == "BOne":
            return one
        if kind == "BMeet":
            return term(t.left, env) & term(t.right, env)
        if kind == "BJoin":
            return term(t.left, env) | term(t.right, env)
        if kind == "BCompl":
            return one ^ term(t.arg, env)
        raise TypeError(f"brute-force evaluator does not handle term {kind}")

    def sat(g: Any, env: Mapping[str, int]) -> bool:
        kind = type(g).__name__
        if kind == "TermEq":
            return term(g.left, env) == term(g.right, env)
        if kind == "TermLe":
            return term(g.left, env) & ~term(g.right, env) == 0
        if kind == "NotZero":
            return term(g.arg, env) != 0
        if kind == "BAnd":
            return all(sat(a, env) for a in g.args)
        if kind == "BOr":
            return any(sat(a, env) for a in g.args)
        if kind == "BNot":
            return not sat(g.arg, env)
        if kind == "BImp":
            return not sat(g.left, env) or sat(g.right, env)
        if kind == "BExists":
            return any(sat(g.body, {**env, g.var: e}) for e in elems)
        if kind == "BForall":
            return all(sat(g.body, {**env, g.var: e}) for e in elems)
        if kind == "GuardedExists":
            for combo in itertools.product(elems, repeat=len(g.zvars)):
                inner = {**env, **dict(zip(g.zvars, combo))}
                if all(_meet(inner, vs, one) & ~term(b, inner) == 0 for vs, b in g.bounds) and sat(g.body, inner):
                    return True
            return False
        raise TypeError(f"brute-force evaluator does not handle {kind}")

    return sat(f, env)


def _meet(env: Mapping[str, int], names: Sequence[str], one: int) -> int:
    m = one
    for v in names:
        m &= env[v]
    return m


def brute_cost(f: Any, n_elems: int) -> int:
    """Worst-case node visits of `brute_sat`; used to pick affordable checks."""
    kind = type(f).__name__
    if kind in ("TermEq", "TermLe", "NotZero"):
        return 1
    if kind in ("BAnd", "BOr"):
        return sum(brute_cost(a, n_elems) for a in f.args)
    if kind == "BNot":
        return brute_cost(f.arg, n_elems)
    if kind == "BImp":
        return brute_cost(f.left, n_elems) + brute_cost(f.right, n_elems)
    if kind in ("BExists", "BForall"):
        return n_elems * brute_cost(f.body, n_elems)
    if kind == "GuardedExists":
        return n_elems ** len(f.zvars) * (len(f.bounds) + brute_cost(f.body, n_elems))
    raise TypeError(f"brute-force evaluator does not handle {kind}")


def has_guard(f: Any) -> bool:
    """Whether a guarded block occurs anywhere in `f`."""
    if type(f).__name__ == "GuardedExists":
        return True
    children = list(getattr(f, "args", ())) + [getattr(f, a) for a in ("arg", "left", "right", "body") if hasattr(f, a)]
    return any(has_guard(c) for c in children)
