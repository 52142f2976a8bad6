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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

RESERVED_NAMES = frozenset({"sup", "inf", "half", "min", "max", "neg", "const", "d"})


def parse_fraction(value: Union[str, int, Fraction]) -> Fraction:
    """Read a rational from "p/q" or integer-string or int."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
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

_CONNECTIVES = (Zero, One, Half, Monus, Min, Max, Neg, DyadicConst)


def is_restricted(f: Formula) -> bool:
    """True when the formula contains no derived connective nodes."""
    if isinstance(f, (Min, Max, Neg, DyadicConst)):
        return False
    if isinstance(f, Half):
        return is_restricted(f.body)
    if isinstance(f, Monus):
        return is_restricted(f.left) and is_restricted(f.right)
    if isinstance(f, (Sup, Inf)):
        return is_restricted(f.body)
    return True


def normalize_restricted(f: Formula) -> Formula:
    """Expand derived connectives exactly; pointwise equal to the input."""
    if isinstance(f, (Zero, One, Atomic, Dist)):
        return f
    if isinstance(f, Half):
        return Half(normalize_restricted(f.body))
    if isinstance(f, Monus):
        return Monus(normalize_restricted(f.left), normalize_restricted(f.right))
    if isinstance(f, Sup):
        return Sup(f.var, normalize_restricted(f.body))
    if isinstance(f, Inf):
        return Inf(f.var, normalize_restricted(f.body))
    if isinstance(f, Min):
        a = normalize_restricted(f.left)
        b = normalize_restricted(f.right)
        return Monus(a, Monus(a, b))
    if isinstance(f, Neg):
        return Monus(One(), normalize_restricted(f.body))
    if isinstance(f, Max):
        # max(a, b) = 1 - min(1 - a, 1 - b), all exact in [0, 1]
        return normalize_restricted(Neg(Min(Neg(f.left), Neg(f.right))))
    if isinstance(f, DyadicConst):
        return _dyadic(f.num, f.denom_log2)
    raise TypeError(f"unknown formula node {f!r}")


def _dyadic(p: int, q: int) -> Formula:
    if p == 0:
        return Zero()
    if p == 2**q:
        return One()
    if 2 * p <= 2**q:
        return Half(_dyadic(p, q - 1))
    return Monus(One(), _dyadic(2**q - p, q))


def free_vars(f: Formula) -> list[str]:
    """Free variables in first-occurrence order."""
    out: list[str] = []

    def term_walk(t: Term, bound: tuple[str, ...]) -> None:
        if isinstance(t, Var):
            if t.name not in bound and t.name not in out:
                out.append(t.name)
        elif isinstance(t, Apply):
            for a in t.args:
                term_walk(a, bound)

    def walk(g: Formula, bound: tuple[str, ...]) -> None:
        if isinstance(g, Atomic):
            for a in g.args:
                term_walk(a, bound)
        elif isinstance(g, Dist):
            term_walk(g.left, bound)
            term_walk(g.right, bound)
        elif isinstance(g, (Half, Neg)):
            walk(g.body, bound)
        elif isinstance(g, (Monus, Min, Max)):
            walk(g.left, bound)
            walk(g.right, bound)
        elif isinstance(g, (Sup, Inf)):
            walk(g.body, bound + (g.var,))

    walk(f, ())
    return out


# --------------------------------------------------------------------------
# printer


def term_to_text(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    return f"{t.func}({','.join(term_to_text(a) for a in t.args)})"


def to_text(f: Formula) -> str:
    if isinstance(f, Zero):
        return "0"
    if isinstance(f, One):
        return "1"
    if isinstance(f, Atomic):
        return f"{f.pred}({','.join(term_to_text(a) for a in f.args)})"
    if isinstance(f, Dist):
        return f"d({term_to_text(f.left)},{term_to_text(f.right)})"
    if isinstance(f, Half):
        return f"half({to_text(f.body)})"
    if isinstance(f, Monus):
        return f"{_operand(f.left, left=True)} -. {_operand(f.right, left=False)}"
    if isinstance(f, Sup):
        return f"sup {f.var} . {to_text(f.body)}"
    if isinstance(f, Inf):
        return f"inf {f.var} . {to_text(f.body)}"
    if isinstance(f, Min):
        return f"min({to_text(f.left)},{to_text(f.right)})"
    if isinstance(f, Max):
        return f"max({to_text(f.left)},{to_text(f.right)})"
    if isinstance(f, Neg):
        return f"neg({to_text(f.body)})"
    if isinstance(f, DyadicConst):
        return f"const({f.num}/2^{f.denom_log2})"
    raise TypeError(f"unknown formula node {f!r}")


def _operand(f: Formula, left: bool) -> str:
    text = to_text(f)
    if isinstance(f, (Sup, Inf)):
        return f"({text})"
    if isinstance(f, Monus) and not left:
        return f"({text})"
    return text


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


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.tokens = _tokenize(text)
        self.sig = sig
        self.i = 0

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
        if value == "half":
            self.expect("LP", "'('")
            body = self.formula()
            self.expect("RP", "')'")
            return Half(body)
        if value in ("min", "max"):
            self.expect("LP", "'('")
            a = self.formula()
            self.expect("COMMA", "','")
            b = self.formula()
            self.expect("RP", "')'")
            return Min(a, b) if value == "min" else Max(a, b)
        if value == "neg":
            self.expect("LP", "'('")
            body = self.formula()
            self.expect("RP", "')'")
            return Neg(body)
        if value == "const":
            self.expect("LP", "'('")
            _, p_text, p_pos = self.expect("INT", "an integer numerator")
            self.expect("SLASH", "'/'")
            _, base, base_pos = self.expect("INT", "'2'")
            if base != "2":
                raise ParseError("dyadic constants must have denominator 2^q", base_pos)
            self.expect("CARET", "'^'")
            _, q_text, _ = self.expect("INT", "an integer exponent")
            self.expect("RP", "')'")
            p, q = int(p_text), int(q_text)
            if p > 2**q:
                raise ParseError(f"const({p}/2^{q}) lies outside [0, 1]", p_pos)
            return DyadicConst(p, q)
        if value == "d":
            self.expect("LP", "'('")
            a = self.term()
            self.expect("COMMA", "','")
            b = self.term()
            self.expect("RP", "')'")
            return Dist(a, b)
        pred = self.sig.pred(value)
        if pred is None:
            raise ParseError(f"undeclared predicate {value!r}", pos)
        self.expect("LP", "'('")
        args = [self.term()]
        while self.peek()[0] == "COMMA":
            self.next()
            args.append(self.term())
        self.expect("RP", "')'")
        if len(args) != pred.arity:
            raise ParseError(f"predicate {value!r} expects {pred.arity} arguments, got {len(args)}", pos)
        return Atomic(value, tuple(args))

    def term(self) -> Term:
        kind, value, pos = self.next()
        if kind != "NAME":
            raise ParseError(f"expected a term, found {value!r}", pos)
        if value in RESERVED_NAMES:
            raise ParseError(f"{value!r} is reserved and cannot appear in a term", pos)
        func = self.sig.func(value)
        if func is not None:
            self.expect("LP", "'('")
            args = [self.term()]
            while self.peek()[0] == "COMMA":
                self.next()
                args.append(self.term())
            self.expect("RP", "')'")
            if len(args) != func.arity:
                raise ParseError(f"function {value!r} expects {func.arity} arguments, got {len(args)}", pos)
            return Apply(value, tuple(args))
        if self.sig.pred(value) is not None:
            raise ParseError(f"predicate {value!r} cannot appear in a term", pos)
        if self.sig.is_const(value):
            return Const(value)
        return Var(value)


def parse(text: str, sig: Signature) -> Formula:
    p = _Parser(text, sig)
    f = p.formula()
    kind, value, pos = p.peek()
    if kind != "EOF":
        raise ParseError(f"trailing input {value!r}", pos)
    return f
