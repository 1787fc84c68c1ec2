"""One input rule for the public API, pinned as a table.

padic holds the whole rule for a number input: a rational is an int or a
Fraction (_as_fraction), a count or a level is an int (_as_int), a sign
is exactly the int 1 or -1 (_as_sign), and a bool is none of these.  An
argument that takes a value object (a PrimeCtx, a CharacterFx, a
MetaSL2, ...) checks its class.  Each entry below names one argument of
a public constructor or function, a call that puts a value there with
every other argument valid, a valid value, a panel of wrong ones (float,
bool, a Fraction where an int is due, str, None, a wrong value object),
the layer's error each wrong value must raise and a pattern its message
must match.  No TypeError or AttributeError may escape.

Left out on purpose: Cyclo.of, Term and the raw SchwartzFn(ctx, terms)
are hot constructors that the library feeds its own normalised values,
so they check nothing (SchwartzFn(ctx, terms) alone runs 9,758 times in
one weil-words run of bench/run.py at seed 1).  SchwartzFn enters the
table through indicator; zero and from_terms build the raw form.  PAdic
is the valuation readers' tag, built by PrimeCtx.of, which coerces.  A
lint in test_lints holds every public class of the Schwartz, cover,
scalar and configuration modules (TABLE_MODULES) either in the table or
in TRUSTED_CLASSES.

The matrix and root layers (chevalley, congruence, rootsys) are in the
table only where an argument is cheap to check: Mat.identity's size,
WeylElem.simple's index and level_exponents' n and m.  Their errors,
MatrixError and RootError, are ValueErrors outside PadicError, so the
test catches ValueError and then demands the exact class.
"""
import re
from fractions import Fraction as Q

import pytest

from padicsp.chevalley import Mat
from padicsp.congruence import MatrixError, level_exponents
from padicsp.harness.config import CampaignConfig, HarnessError
from padicsp.metaplectic import (
    CharacterFx,
    MetaError,
    MetaSL2,
    SectionFsi,
    decompose_big_cell,
    intertwine_eval_exact,
    intertwine_level,
    ramified_character,
    rao_cocycle,
)
from padicsp.padic import Mono, PadicError, PrimeCtx
from padicsp.quadext import QuadExt, QuadExtElem, norm_one_decompose
from padicsp.rootsys import RootError, WeylElem
from padicsp.schwartz import (
    SchwartzError,
    SchwartzFn,
    check_rep_identity,
    fourier,
    phi_m,
    weil_act,
    weil_act_cover,
)
from padicsp.words import HeisenbergElem, cover_lift

# The modules whose public classes the table must cover.
TABLE_MODULES = ("padic", "quadext", "metaplectic", "schwartz", "chirp", "words", "harness.config")

TRUSTED_CLASSES = {
    "padic.PAdic",  # the valuation readers' tag; PrimeCtx.of coerces
    "padic.Cyclo",  # Cyclo.of sums the library's own Monos
    "chirp.Term",  # built only by the Schwartz arithmetic
}

C5 = PrimeCtx(5)
ETA = ramified_character(C5, 1)
SEC = SectionFsi(intertwine_level(ETA, 9), ETA)
F = SchwartzFn.indicator(C5)
G = MetaSL2.flip(C5)
E = QuadExt(C5, 2)
ONE = ((1, 0), (0, 1))

RATIONALS = (1.0, 0.5, True, "1", None, Mono())
INTS = (1.0, 3.0, True, False, Q(1), Q(3), "1", None, Mono())
POSITIVE = INTS + (0, -1)
NONNEGATIVE = INTS + (-1,)
SIGNS = (1.0, -1.0, True, Q(1), Q(-1), "1", None, Mono(), 0, 2, -2)
OBJECTS = (5, 1.0, True, Q(1), "5", None, Mono())

EXACT = "exact rational"


def entry(target, slot, call, good, wrong, error, match):
    return pytest.param(target, call, good, wrong, error, match, id=f"{target}:{slot}")


INPUT_TABLE = [
    # padic
    entry("padic.PrimeCtx", "p", lambda x: PrimeCtx(x), 5, INTS + (2, 9, 1, 0, -3), PadicError, "^p "),
    entry("padic.PrimeCtx.of", "x", lambda x: C5.of(x), Q(1, 5), RATIONALS, PadicError, EXACT),
    entry("padic.Mono", "rat", lambda x: Mono(x), 2, RATIONALS, PadicError, EXACT),
    entry("padic.Mono", "qexp", lambda x: Mono(1, x), Q(1, 2), RATIONALS, PadicError, EXACT),
    entry("padic.Mono", "turn", lambda x: Mono(1, 0, x), Q(1, 8), RATIONALS, PadicError, EXACT),
    # quadext
    entry("quadext.QuadExt", "ctx", lambda x: QuadExt(x, 2), C5, OBJECTS, PadicError, "^ctx "),
    entry("quadext.QuadExt", "d", lambda x: QuadExt(C5, x), 2, RATIONALS, PadicError, EXACT),
    entry("quadext.QuadExt.chart", "s", lambda x: E.chart(x), Q(1, 5), RATIONALS, PadicError, EXACT),
    entry("quadext.QuadExtElem", "a", lambda x: QuadExtElem(E, x), 1, RATIONALS, PadicError, EXACT),
    entry("quadext.QuadExtElem", "b", lambda x: QuadExtElem(E, 1, x), 1, RATIONALS, PadicError, EXACT),
    entry("quadext.norm_one_decompose", "x", lambda x: norm_one_decompose(x, 1), E.one(), OBJECTS,
          PadicError, "^x "),
    entry("quadext.norm_one_decompose", "m", lambda x: norm_one_decompose(E.one(), x), 1, POSITIVE,
          PadicError, "^m "),
    # metaplectic
    entry("metaplectic.MetaSL2", "ctx", lambda x: MetaSL2(x, ONE), C5, OBJECTS, MetaError, "^ctx "),
    entry("metaplectic.MetaSL2", "rows", lambda x: MetaSL2(C5, ((1, x), (0, 1))), 1, RATIONALS,
          PadicError, EXACT),
    entry("metaplectic.MetaSL2", "zeta", lambda x: MetaSL2(C5, ONE, x), -1, SIGNS, MetaError, "^sheet sign "),
    entry("metaplectic.MetaSL2.identity", "ctx", lambda x: MetaSL2.identity(x), C5, OBJECTS, MetaError, "^ctx "),
    entry("metaplectic.MetaSL2.identity", "zeta", lambda x: MetaSL2.identity(C5, x), -1, SIGNS,
          MetaError, "^sheet sign "),
    entry("metaplectic.MetaSL2.upper", "ctx", lambda x: MetaSL2.upper(x, 1), C5, OBJECTS, MetaError, "^ctx "),
    entry("metaplectic.MetaSL2.upper", "b", lambda x: MetaSL2.upper(C5, x), Q(1, 5), RATIONALS, PadicError, EXACT),
    entry("metaplectic.MetaSL2.upper", "zeta", lambda x: MetaSL2.upper(C5, 1, x), -1, SIGNS,
          MetaError, "^sheet sign "),
    entry("metaplectic.MetaSL2.lower", "y", lambda x: MetaSL2.lower(C5, x), 5, RATIONALS, PadicError, EXACT),
    entry("metaplectic.MetaSL2.lower", "zeta", lambda x: MetaSL2.lower(C5, 1, x), -1, SIGNS,
          MetaError, "^sheet sign "),
    entry("metaplectic.MetaSL2.diag", "a", lambda x: MetaSL2.diag(C5, x), Q(2, 5), RATIONALS, PadicError, EXACT),
    entry("metaplectic.MetaSL2.diag", "zeta", lambda x: MetaSL2.diag(C5, 2, x), -1, SIGNS,
          MetaError, "^sheet sign "),
    entry("metaplectic.MetaSL2.flip", "ctx", lambda x: MetaSL2.flip(x), C5, OBJECTS, MetaError, "^ctx "),
    entry("metaplectic.MetaSL2.flip", "zeta", lambda x: MetaSL2.flip(C5, x), -1, SIGNS, MetaError, "^sheet sign "),
    entry("metaplectic.rao_cocycle", "ctx", lambda x: rao_cocycle(x, ONE, ONE), C5, OBJECTS, MetaError, "^ctx "),
    entry("metaplectic.decompose_big_cell", "y", lambda x: decompose_big_cell(x, 1), 1, RATIONALS,
          PadicError, EXACT),
    entry("metaplectic.CharacterFx", "ctx", lambda x: CharacterFx(x, 1, Q(1, 4)), C5, OBJECTS, MetaError, "^ctx "),
    entry("metaplectic.CharacterFx", "conductor", lambda x: CharacterFx(C5, x, Q(1, 4)), 1, NONNEGATIVE,
          MetaError, "^conductor "),
    entry("metaplectic.CharacterFx", "unit_phase", lambda x: CharacterFx(C5, 1, x), Q(1, 4), RATIONALS,
          PadicError, EXACT),
    entry("metaplectic.CharacterFx", "varpi_phase", lambda x: CharacterFx(C5, 1, Q(1, 4), x), Q(1, 3),
          RATIONALS, PadicError, EXACT),
    entry("metaplectic.CharacterFx.phase", "a", lambda x: ETA.phase(x), 2, RATIONALS, PadicError, EXACT),
    entry("metaplectic.ramified_character", "ctx", lambda x: ramified_character(x, 1), C5, OBJECTS,
          MetaError, "^ctx "),
    entry("metaplectic.ramified_character", "conductor", lambda x: ramified_character(C5, x), 2, POSITIVE,
          MetaError, "^conductor "),
    entry("metaplectic.ramified_character", "turns", lambda x: ramified_character(C5, 1, x), 3, INTS,
          MetaError, "^turns "),
    entry("metaplectic.SectionFsi", "i", lambda x: SectionFsi(x, ETA), 2, POSITIVE, MetaError, "^level "),
    entry("metaplectic.SectionFsi", "eta", lambda x: SectionFsi(1, x), ETA, OBJECTS + (C5,), MetaError, "^eta "),
    entry("metaplectic.SectionFsi", "s", lambda x: SectionFsi(1, ETA, x), Q(1, 3), RATIONALS, MetaError, "^s = "),
    entry("metaplectic.intertwine_level", "x_bound", lambda x: intertwine_level(ETA, x), 9, RATIONALS,
          PadicError, EXACT),
    entry("metaplectic.intertwine_eval_exact", "x", lambda x: intertwine_eval_exact(SEC, x, 9), Q(1, 3),
          RATIONALS, PadicError, EXACT),
    entry("metaplectic.intertwine_eval_exact", "x_bound", lambda x: intertwine_eval_exact(SEC, 0, x), 9,
          RATIONALS, PadicError, EXACT),
    # schwartz
    entry("schwartz.SchwartzFn.indicator", "ctx", lambda x: SchwartzFn.indicator(x), C5, OBJECTS,
          SchwartzError, "^ctx "),
    entry("schwartz.SchwartzFn.indicator", "center", lambda x: SchwartzFn.indicator(C5, x), Q(1, 5),
          RATIONALS, PadicError, EXACT),
    entry("schwartz.SchwartzFn.indicator", "rad", lambda x: SchwartzFn.indicator(C5, 0, x), -1, INTS,
          SchwartzError, "^rad "),
    entry("schwartz.phi_m", "ctx", lambda x: phi_m(x, 1, 2), C5, OBJECTS, SchwartzError, "^ctx "),
    entry("schwartz.phi_m", "m", lambda x: phi_m(C5, x, 2), 2, POSITIVE, SchwartzError, "^m "),
    entry("schwartz.phi_m", "n", lambda x: phi_m(C5, 1, x), 2, POSITIVE, SchwartzError, "^n "),
    entry("schwartz.fourier", "twist", lambda x: fourier(F, x), -1, SIGNS, SchwartzError, "^twist "),
    entry("schwartz.weil_act", "twist", lambda x: weil_act([("flip",)], F, x), -1, SIGNS,
          SchwartzError, "^twist "),
    entry("schwartz.weil_act", "sign item", lambda x: weil_act([("sign", x)], F), -1, SIGNS,
          SchwartzError, "^sheet sign "),
    entry("schwartz.weil_act", "upper item", lambda x: weil_act([("upper", x)], F), Q(1, 5), RATIONALS,
          PadicError, EXACT),
    entry("schwartz.weil_act", "diag item", lambda x: weil_act([("diag", x)], F), 5, RATIONALS,
          PadicError, EXACT),
    entry("schwartz.weil_act", "heis item", lambda x: weil_act([("heis", x, 0, 0)], F), 1, RATIONALS,
          PadicError, EXACT),
    entry("words.cover_lift", "ctx", lambda x: cover_lift(x, [("flip",)]), C5, OBJECTS, MetaError, "^ctx "),
    entry("words.cover_lift", "sign item", lambda x: cover_lift(C5, [("sign", x)]), -1, SIGNS,
          SchwartzError, "^sheet sign "),
    entry("schwartz.weil_act_cover", "g", lambda x: weil_act_cover(x, F), G, OBJECTS + (F,),
          SchwartzError, "^g "),
    entry("schwartz.weil_act_cover", "twist", lambda x: weil_act_cover(G, F, x), -1, SIGNS,
          SchwartzError, "^twist "),
    entry("schwartz.check_rep_identity", "twist", lambda x: check_rep_identity([("flip",)], [], F, x), -1,
          SIGNS, SchwartzError, "^twist "),
    entry("words.HeisenbergElem", "x", lambda x: HeisenbergElem(x, 0, 0), 1, RATIONALS, PadicError, EXACT),
    entry("words.HeisenbergElem", "xp", lambda x: HeisenbergElem(0, x, 0), 1, RATIONALS, PadicError, EXACT),
    entry("words.HeisenbergElem", "z", lambda x: HeisenbergElem(0, 0, x), 1, RATIONALS, PadicError, EXACT),
    # chevalley, congruence and rootsys
    entry("chevalley.Mat.identity", "size", lambda x: Mat.identity(x), 4, NONNEGATIVE, MatrixError, "^size "),
    entry("rootsys.WeylElem.simple", "k", lambda x: WeylElem.simple(3, x), 2, INTS, RootError, "^generator index "),
    entry("congruence.level_exponents", "n", lambda x: level_exponents(x, 1), 3, INTS, MatrixError, "^n "),
    entry("congruence.level_exponents", "m", lambda x: level_exponents(2, x), 2, INTS, MatrixError, "^m "),
    # harness.config
    entry("harness.config.CampaignConfig", "n", lambda x: CampaignConfig(n=(2, x)), 4, INTS,
          HarnessError, "^n "),
    entry("harness.config.CampaignConfig", "p", lambda x: CampaignConfig(p=(x,)), 7, INTS, HarnessError, "^p "),
    entry("harness.config.CampaignConfig", "m", lambda x: CampaignConfig(m=(x,)), 3, INTS, HarnessError, "^m "),
    entry("harness.config.CampaignConfig", "samples", lambda x: CampaignConfig(samples=x), 0, INTS,
          HarnessError, "^samples "),
    entry("harness.config.CampaignConfig", "seed", lambda x: CampaignConfig(seed=x), 7, INTS,
          HarnessError, "^seed "),
    entry("harness.config.CampaignConfig.validate", "p", lambda x: CampaignConfig(p=(x,)).validate(), 13,
          INTS + (2, 9, 1, 0, -3), HarnessError, "^p "),
]


@pytest.mark.parametrize("target,call,good,wrong,error,match", INPUT_TABLE)
def test_each_argument_takes_its_kind_and_refuses_the_panel(target, call, good, wrong, error, match):
    call(good)
    for x in wrong:
        try:
            call(x)
        except ValueError as exc:
            assert type(exc) is error and re.search(match, str(exc)), (x, exc)
        except (TypeError, AttributeError) as exc:
            pytest.fail(f"{target} leaked {type(exc).__name__} on {x!r}: {exc}")
        else:
            pytest.fail(f"{target} took {x!r}")
