"""Signatures, terms and the [0,1]-valued formula AST.

The core connectives are 0, 1, half and truncated subtraction (monus),
plus sup/inf quantifiers. Derived connectives (min, max, neg, dyadic
constants) are eliminable exactly; `normalize_restricted` performs that
elimination. All scalar arithmetic is exact `fractions.Fraction`.

Concrete grammar accepted by `parse`:

    F ::= 'sup' VAR '.' F | 'inf' VAR '.' F | C
    C ::= A ('-.' A)*                             (left associative)
    A ::= '0' | '1' | 'half(' F ')' | 'min(' F ',' F ')' | 'max(' F ',' F ')'
        | 'neg(' F ')' | 'const(' INT '/2^' INT ')'
        | 'd(' T ',' T ')' | PRED '(' T (',' T)* ')' | '(' F ')'
    T ::= NAME | FUNC '(' T (',' T)* ')'

A quantifier body extends as far right as possible, so a quantified
formula appearing as a monus operand must be parenthesized (the printer
does this).

`parse` rejects, with a ParseError, a formula whose syntax tree is more
than MAX_DEPTH = 100 nodes deep, terms included; a monus chain of k
operands is at least k deep. It also rejects const(p/2^q) for q above
MAX_DEPTH / 2, since that constant's normal form is up to 2q deep. The
walkers recurse along the tree, and at the limit a chain of any one
connective stays inside Python's default recursion limit in each of
them, translation_cost on its normal form included.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

RESERVED_NAMES = frozenset({"sup", "inf", "half", "min", "max", "neg", "const", "d"})

MAX_DEPTH = 100


def parse_fraction(value: Union[str, int, Fraction]) -> Fraction:
    """Read a rational from "p/q" or integer-string or int."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"cannot read a rational from {value!r}")


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# --------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class PredSym:
    name: str
    arity: int
    lipschitz: Fraction


@dataclass(frozen=True)
class FuncSym:
    name: str
    arity: int
    lipschitz: Fraction


@dataclass(frozen=True)
class Signature:
    """One-sorted signature with Lipschitz moduli and diameter bound 1."""

    preds: tuple[PredSym, ...] = ()
    funcs: tuple[FuncSym, ...] = ()
    consts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [p.name for p in self.preds] + [f.name for f in self.funcs] + list(self.consts)
        for name in names:
            if name in RESERVED_NAMES:
                raise ValueError(f"symbol name {name!r} is reserved")
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique")
        for sym in self.preds + self.funcs:
            if sym.arity < 1:
                raise ValueError(f"arity of {sym.name!r} must be positive")
            if sym.lipschitz <= 0:
                raise ValueError(f"Lipschitz bound of {sym.name!r} must be positive")

    def pred(self, name: str) -> PredSym | None:
        for p in self.preds:
            if p.name == name:
                return p
        return None

    def func(self, name: str) -> FuncSym | None:
        for f in self.funcs:
            if f.name == name:
                return f
        return None

    def is_const(self, name: str) -> bool:
        return name in self.consts


def signature_to_json(sig: Signature) -> dict:
    return {
        "preds": [{"name": p.name, "arity": p.arity, "lipschitz": format_fraction(p.lipschitz)} for p in sig.preds],
        "funcs": [{"name": f.name, "arity": f.arity, "lipschitz": format_fraction(f.lipschitz)} for f in sig.funcs],
        "consts": list(sig.consts),
    }


def signature_from_json(doc: Mapping) -> Signature:
    """Read a signature document; one of the wrong shape raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("a signature document must be an object")
    preds, funcs, consts = (doc.get(key, []) for key in ("preds", "funcs", "consts"))
    if not all(isinstance(x, list) for x in (preds, funcs, consts)):
        raise ValueError("signature 'preds', 'funcs' and 'consts' must be lists")
    if not all(isinstance(x, dict) and isinstance(x.get("arity"), (int, str)) for x in preds + funcs):
        raise ValueError("every signature symbol must be an object with an 'arity'")
    return Signature(
        preds=tuple(PredSym(str(p["name"]), int(p["arity"]), parse_fraction(p["lipschitz"])) for p in preds),
        funcs=tuple(FuncSym(str(f["name"]), int(f["arity"]), parse_fraction(f["lipschitz"])) for f in funcs),
        consts=tuple(str(c) for c in consts),
    )


# --------------------------------------------------------------------------
# terms and formulas


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Apply:
    func: str
    args: tuple["Term", ...]


Term = Union[Var, Const, Apply]


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Atomic:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Dist:
    left: Term
    right: Term


@dataclass(frozen=True)
class Half:
    body: "Formula"


@dataclass(frozen=True)
class Monus:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Sup:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Inf:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Min:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Max:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Neg:
    body: "Formula"


@dataclass(frozen=True)
class DyadicConst:
    num: int
    denom_log2: int

    def __post_init__(self) -> None:
        if self.denom_log2 < 0 or not (0 <= self.num <= 2**self.denom_log2):
            raise ValueError("dyadic constant must satisfy 0 <= p <= 2^q")


Formula = Union[Zero, One, Atomic, Dist, Half, Monus, Sup, Inf, Min, Max, Neg, DyadicConst]


def _neg(a: Formula) -> Formula:
    return Monus(One(), a)


def _min(a: Formula, b: Formula) -> Formula:
    return Monus(a, Monus(a, b))


def _dyadic(p: int, q: int) -> Formula:
    if p == 0:
        return Zero()
    if p == 2**q:
        return One()
    if 2 * p <= 2**q:
        return Half(_dyadic(p, q - 1))
    return Monus(One(), _dyadic(2**q - p, q))


# Each term and formula class with its printed head, its child fields in
# print order, and for a derived connective its restricted expansion over
# the already normalized children. "args" holds a tuple of children; Sup
# and Inf bind `var` in `body`. A head is a format string over the node g:
# call forms print it before their parenthesized children, Sup and Inf
# before their body, and -. between its operands.
_NODES: dict[type, tuple[str, tuple[str, ...], Optional[Callable[..., Formula]]]] = {
    Var: ("{g.name}", (), None),
    Const: ("{g.name}", (), None),
    Apply: ("{g.func}", ("args",), None),
    Zero: ("0", (), None),
    One: ("1", (), None),
    Atomic: ("{g.pred}", ("args",), None),
    Dist: ("d", ("left", "right"), None),
    Half: ("half", ("body",), None),
    Monus: ("-.", ("left", "right"), None),
    Sup: ("sup {g.var} .", ("body",), None),
    Inf: ("inf {g.var} .", ("body",), None),
    Min: ("min", ("left", "right"), lambda g, a, b: _min(a, b)),
    # max(a, b) = 1 - min(1 - a, 1 - b), all exact in [0, 1]
    Max: ("max", ("left", "right"), lambda g, a, b: _neg(_min(_neg(a), _neg(b)))),
    Neg: ("neg", ("body",), lambda g, a: _neg(a)),
    DyadicConst: ("const({g.num}/2^{g.denom_log2})", (), lambda g: _dyadic(g.num, g.denom_log2)),
}

# the call forms the parser reads by keyword; their rows give the arity
_CALLS = {_NODES[c][0]: c for c in (Half, Neg, Min, Max, Dist)}


def _getter(fields: tuple[str, ...]) -> Callable[[Formula | Term], tuple]:
    # attrgetter returns the "args" tuple, or a tuple of two or more fields
    if len(fields) == 1 and fields != ("args",):
        return lambda g, k=fields[0]: (getattr(g, k),)
    return operator.attrgetter(*fields) if fields else lambda g: ()


_CHILDREN = {cls: _getter(fields) for cls, (_, fields, _) in _NODES.items()}


def children(g: Formula | Term) -> tuple:
    """The direct subterms and subformulas of g, in print order; the
    walkers call it before they read g's row, so unknown classes fail here."""
    try:
        return _CHILDREN[type(g)](g)
    except KeyError:
        raise TypeError(f"unknown formula node {g!r}") from None


def is_restricted(f: Formula) -> bool:
    """True when the formula contains no derived connective nodes."""
    return all(map(is_restricted, children(f))) and _NODES[type(f)][2] is None


def normalize_restricted(f: Formula) -> Formula:
    """Expand derived connectives exactly; pointwise equal to the input."""
    old = children(f)
    _, fields, expand = _NODES[type(f)]
    kids = tuple(map(normalize_restricted, old))
    if expand is not None:
        return expand(f, *kids)
    if all(map(operator.is_, kids, old)):
        return f
    return replace(f, **dict(zip(fields, kids)))


def free_vars(f: Formula | Term) -> list[str]:
    """Free variables in first-occurrence order; f may be a bare term."""
    out: dict[str, None] = {}

    def walk(g: Formula | Term, bound: frozenset) -> None:
        if isinstance(g, Var) and g.name not in bound:
            out.setdefault(g.name)
        if isinstance(g, (Sup, Inf)):
            bound = bound | {g.var}
        for c in children(g):
            walk(c, bound)

    walk(f, frozenset())
    return list(out)


# --------------------------------------------------------------------------
# printer


def to_text(g: Formula | Term) -> str:
    """The text `parse` reads back as g; g may be a bare term."""
    kids = children(g)
    head = _NODES[type(g)][0].format(g=g)
    if isinstance(g, Monus):
        wrap = ((Sup, Inf), (Sup, Inf, Monus))  # -. associates to the left
        left, right = (f"({to_text(c)})" if isinstance(c, w) else to_text(c) for c, w in zip(kids, wrap))
        return f"{left} {head} {right}"
    if isinstance(g, (Sup, Inf)):
        return f"{head} {to_text(kids[0])}"
    return f"{head}({','.join(map(to_text, kids))})" if kids else head


# --------------------------------------------------------------------------
# parser


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_SPECS = (
    ("WS", r"\s+"),
    ("MONUS", r"-\."),
    ("NAME", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("INT", r"\d+"),
    ("LP", r"\("),
    ("RP", r"\)"),
    ("COMMA", r","),
    ("DOT", r"\."),
    ("SLASH", r"/"),
    ("CARET", r"\^"),
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    import re

    pattern = "|".join(f"(?P<{k}>{v})" for k, v in _TOKEN_SPECS)
    tokens = []
    pos = 0
    for m in re.finditer(pattern, text):
        if m.start() != pos:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        if m.lastgroup != "WS":
            tokens.append((m.lastgroup, m.group(), m.start()))
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(("EOF", "", len(text)))
    return tokens


def _nested(read: Callable) -> Callable:
    """read, counting the formulas and terms open around it: deep input is a ParseError, not a RecursionError."""

    def guarded(self: "_Parser"):
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ParseError(f"formula nested more than {MAX_DEPTH} deep", self.peek()[2])
        out = read(self)
        self.level -= 1
        return out

    return guarded


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.tokens = _tokenize(text)
        self.sig = sig
        self.i = 0
        self.level = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1]!r}", tok[2])
        return tok

    @_nested
    def formula(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "NAME" and value in ("sup", "inf"):
            self.next()
            vkind, vname, vpos = self.expect("NAME", "a variable name")
            if vname in RESERVED_NAMES:
                raise ParseError(f"{vname!r} is reserved and cannot be a variable", vpos)
            if self.sig.pred(vname) or self.sig.func(vname) or self.sig.is_const(vname):
                raise ParseError(f"{vname!r} is a declared symbol and cannot be a variable", vpos)
            self.expect("DOT", "'.'")
            body = self.formula()
            return Sup(vname, body) if value == "sup" else Inf(vname, body)
        return self.chain()

    def chain(self) -> Formula:
        left = self.atom()
        while self.peek()[0] == "MONUS":
            self.next()
            right = self.atom()
            left = Monus(left, right)
        return left

    def args(self, read: Callable[[], Formula | Term], count: Optional[int] = None) -> list:
        """'(' read() (',' read())* ')': `count` results, or all there are."""
        self.expect("LP", "'('")
        out = [read()]
        while len(out) < count if count else self.peek()[0] == "COMMA":
            self.expect("COMMA", "','")
            out.append(read())
        self.expect("RP", "')'")
        return out

    def atom(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "INT":
            if value == "0":
                return Zero()
            if value == "1":
                return One()
            raise ParseError(f"numeric literal {value!r} is not a formula (use const(p/2^q))", pos)
        if kind == "LP":
            f = self.formula()
            self.expect("RP", "')'")
            return f
        if kind != "NAME":
            raise ParseError(f"expected a formula, found {value!r}", pos)
        if value in ("sup", "inf"):
            raise ParseError("a quantified formula must be parenthesized here", pos)
        cls = _CALLS.get(value)
        if cls is not None:
            return cls(*self.args(self.term if cls is Dist else self.formula, len(_NODES[cls][1])))
        if value == "const":
            self.expect("LP", "'('")
            _, p_text, p_pos = self.expect("INT", "an integer numerator")
            self.expect("SLASH", "'/'")
            _, base, base_pos = self.expect("INT", "'2'")
            if base != "2":
                raise ParseError("dyadic constants must have denominator 2^q", base_pos)
            self.expect("CARET", "'^'")
            _, q_text, q_pos = self.expect("INT", "an integer exponent")
            self.expect("RP", "')'")
            p, q = int(p_text), int(q_text)
            if 2 * q > MAX_DEPTH:  # the normal form is up to 2q deep; checked before 2**q
                raise ParseError(f"const(p/2^{q}) normalizes to a formula nested more than {MAX_DEPTH} deep", q_pos)
            if p > 2**q:
                raise ParseError(f"const({p}/2^{q}) lies outside [0, 1]", p_pos)
            return DyadicConst(p, q)
        pred = self.sig.pred(value)
        if pred is None:
            raise ParseError(f"undeclared predicate {value!r}", pos)
        args = self.args(self.term)
        if len(args) != pred.arity:
            raise ParseError(f"predicate {value!r} expects {pred.arity} arguments, got {len(args)}", pos)
        return Atomic(value, tuple(args))

    @_nested
    def term(self) -> Term:
        kind, value, pos = self.next()
        if kind != "NAME":
            raise ParseError(f"expected a term, found {value!r}", pos)
        if value in RESERVED_NAMES:
            raise ParseError(f"{value!r} is reserved and cannot appear in a term", pos)
        func = self.sig.func(value)
        if func is not None:
            args = self.args(self.term)
            if len(args) != func.arity:
                raise ParseError(f"function {value!r} expects {func.arity} arguments, got {len(args)}", pos)
            return Apply(value, tuple(args))
        if self.sig.pred(value) is not None:
            raise ParseError(f"predicate {value!r} cannot appear in a term", pos)
        if self.sig.is_const(value):
            return Const(value)
        return Var(value)


def parse(text: str, sig: Signature) -> Formula:
    """Read a formula; malformed input, or a syntax tree more than
    MAX_DEPTH nodes deep, raises ParseError."""
    p = _Parser(text, sig)
    f = p.formula()
    kind, value, pos = p.peek()
    if kind != "EOF":
        raise ParseError(f"trailing input {value!r}", pos)
    # a -. chain is read in a loop, so only the tree shows its depth
    todo = [(f, 1)]
    while todo:
        g, d = todo.pop()
        if d > MAX_DEPTH:
            raise ParseError(f"formula nested more than {MAX_DEPTH} deep", 0)
        todo += [(c, d + 1) for c in children(g)]
    return f
