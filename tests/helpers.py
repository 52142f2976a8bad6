"""Document readers and writers, a Boolean constant, the guarded-block
expansion, the own-meet form of a general block and the mutation hooks
that only the tests use, kept out of the package."""

import functools
import itertools
from dataclasses import replace
from typing import Mapping

from fvlogic.boolean_ideals import (
    ATOMS,
    BAnd,
    BCompl,
    BExists,
    BJoin,
    BMeet,
    BNot,
    BOne,
    BooleanFormula,
    BVar,
    BZero,
    GuardedExists,
    NotZero,
    TermEq,
    TermLe,
    _children,
    _map_children,
    ideal_to_json,
)
from fvlogic.fv_translator import DeterminingSequence
from fvlogic.reduced_products import Family, family_documents
from fvlogic.structures import from_json as structure_from_json, to_json as structure_to_json
from fvlogic.syntax import Signature, format_fraction


def family_to_json(fam: Family) -> dict:
    return {
        "ideal": ideal_to_json(fam.ideal),
        "structures": {str(g): structure_to_json(fam.structures[g]) for g in fam.ideal.omega},
    }


def family_from_json(doc: Mapping, sig: Signature) -> Family:
    ideal, raw = family_documents(doc)
    return Family(ideal, {g: structure_from_json(raw[g], sig) for g in ideal.omega})


def signature_to_json(sig: Signature) -> dict:
    return {
        "preds": [{"name": p.name, "arity": p.arity, "lipschitz": format_fraction(p.lipschitz)} for p in sig.preds],
        "funcs": [{"name": f.name, "arity": f.arity, "lipschitz": format_fraction(f.lipschitz)} for f in sig.funcs],
        "consts": list(sig.consts),
    }


def b_true() -> BooleanFormula:
    return TermEq(BOne(), BOne())


def expand_guarded(f: BooleanFormula) -> BooleanFormula:
    """Recursively replace every guarded block by its raw expansion."""
    if isinstance(f, GuardedExists):
        return expand_guarded(f.expand_raw())
    if isinstance(f, ATOMS):
        return f
    return _map_children(f, expand_guarded)


def own_meet_form(zvars, bounds, body, raw_body=None) -> tuple[BooleanFormula, BooleanFormula]:
    """A general guarded block, whose bound ((v1..vk), t) may meet free
    variables and outer z, as two formulas: its own-meet form, which moves
    each meet's names r outside zvars into the term, z & r <= t as
    z <= t | ~r, and a bound with no z outside the block as meet(r) <= t;
    and the general block's raw expansion, exists zvars (and of
    meet(v1..vk) <= t, raw_body), built by hand. raw_body defaults to body
    with its guarded blocks expanded."""
    meet = lambda names: functools.reduce(BMeet, map(BVar, names))
    own: list = []
    outside: list[BooleanFormula] = []
    for names, t in bounds:
        zs = tuple(v for v in names if v in zvars)
        rest = [v for v in names if v not in zvars]
        if not zs:
            outside.append(TermLe(meet(rest), t))
        else:
            own.append((zs, BJoin(t, BCompl(meet(rest))) if rest else t))
    block = GuardedExists(tuple(zvars), tuple(own), body)
    raw_body = expand_guarded(body) if raw_body is None else raw_body
    raw: BooleanFormula = BAnd((*(TermLe(meet(names), t) for names, t in bounds), raw_body))
    for z in reversed(zvars):
        raw = BExists(z, raw)
    return (BAnd((*outside, block)) if outside else block), raw


def count_atoms(sigma: BooleanFormula) -> int:
    """Atoms of sigma with guarded blocks expanded, as to_prefix prints them."""

    def count(g: BooleanFormula) -> int:
        return 1 if isinstance(g, ATOMS) else sum(map(count, _children(g)))

    return count(expand_guarded(sigma))


def mutate_sigma(sigma: BooleanFormula, index: int) -> BooleanFormula:
    """Replace the index-th atom (preorder, guarded blocks expanded)
    by its negation; used to confirm certify catches corruption."""
    seen = itertools.count()

    def walk(g: BooleanFormula) -> BooleanFormula:
        if not isinstance(g, ATOMS):
            return _map_children(g, walk)
        if next(seen) != index:
            return g
        return TermEq(g.arg, BZero()) if isinstance(g, NotZero) else BNot(g)

    out = walk(expand_guarded(sigma))
    atoms = next(seen)
    if atoms <= index:
        raise ValueError(f"sigma has only {atoms} atoms")
    return out


def mutate_ds(ds: DeterminingSequence, ell: int, atom_index: int) -> DeterminingSequence:
    sigmas = list(ds.sigmas)
    sigmas[ell] = mutate_sigma(sigmas[ell], atom_index)
    return replace(ds, sigmas=tuple(sigmas))
