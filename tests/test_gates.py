"""The construction gates run unconditionally: no argument turns them off,
and a corrupted differential is refused by every public way of building a
complex."""

import inspect

import pytest

from bosonfermion import catbernstein, cli, fock, homalg, linalg, symrep
from bosonfermion.catbernstein import (
    apply_bernstein,
    apply_bernstein_star,
    apply_sigma,
    bernstein_complex,
    bernstein_star_complex,
    compose_bernstein,
    fermionic_apply,
    fermionic_star_apply,
    sigma_complex,
)
from bosonfermion.errors import ChainComplexError
from bosonfermion.homalg import ChainMap, cone, single_module_complex
from bosonfermion.linalg import SMat
from bosonfermion.symrep import specht_module, trivial_module
from strand_oracles import direct_sum, shifted

GATE_SWITCHES = {"check", "validate", "inject_sign_flip", "_flip_sign"}


def _callables(module):
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", [homalg, catbernstein, linalg, symrep,
                                    fock, cli], ids=lambda m: m.__name__)
def test_no_parameter_switches_a_gate_off(module):
    found = [(name, sorted(GATE_SWITCHES & set(inspect.signature(fn).parameters)))
             for name, fn in _callables(module)]
    assert [hit for hit in found if hit[1]] == []
    assert found, "the walk found no functions"


def _plus_one_at_origin(mat):
    if not (mat.nrows and mat.ncols):
        return mat
    return mat + SMat.from_entries(mat.nrows, mat.ncols, [(0, 0, 1)])


def _s21():
    return specht_module([2, 1])


def _charged(m):
    return {0: single_module_complex(m)}


# each instance has three consecutive chain groups, so d∘d can fail
OPERATOR_ENTRY_POINTS = {
    "bernstein_complex": lambda: bernstein_complex(0, _s21()),
    "bernstein_star_complex": lambda: bernstein_star_complex(0, _s21()),
    "sigma_complex": lambda: sigma_complex(-1, trivial_module(2)),
    "apply_bernstein": lambda: apply_bernstein(0, single_module_complex(_s21())),
    "apply_bernstein_star":
        lambda: apply_bernstein_star(0, single_module_complex(_s21())),
    "apply_sigma": lambda: apply_sigma(1, single_module_complex(trivial_module(2))),
    "compose_bernstein": lambda: compose_bernstein([(0, False)], _s21()),
    "fermionic_apply": lambda: fermionic_apply(1, _charged(_s21())),
    "fermionic_star_apply": lambda: fermionic_star_apply(0, _charged(_s21())),
}

# The charged generators return homology; the operator complex each one
# builds and reduces, charge 0 on S(2,1), is the unreduced route.
UNREDUCED = {
    "fermionic_apply": OPERATOR_ENTRY_POINTS["apply_bernstein"],
    "fermionic_star_apply": OPERATOR_ENTRY_POINTS["apply_bernstein_star"],
}


@pytest.mark.parametrize("name", sorted(OPERATOR_ENTRY_POINTS))
def test_corrupted_differential_is_refused(name, monkeypatch):
    build = OPERATOR_ENTRY_POINTS[name]
    good = UNREDUCED.get(name, build)()
    complexes = good.values() if isinstance(good, dict) else [good]
    assert any(k + 1 in cx.diffs for cx in complexes for k in cx.diffs), name
    differential = catbernstein._differential
    monkeypatch.setattr(
        catbernstein, "_differential",
        lambda op, src, tgt: _plus_one_at_origin(differential(op, src, tgt)))
    with pytest.raises(ChainComplexError, match="d∘d"):
        build()


def _cone_from(cx):
    # the identity onto a separate copy: only the source gets corrupted,
    # after the chain map is built
    copy = bernstein_complex(0, _s21())
    f = ChainMap(cx, copy, {k: SMat.identity(cx.dim(k)) for k in cx.degrees()})
    return lambda: cone(f)


@pytest.mark.parametrize("prepare", [
    lambda cx: lambda: shifted(cx, 1),
    lambda cx: lambda: direct_sum([cx]),
    _cone_from,
], ids=["shifted", "direct_sum", "cone"])
def test_constructions_recheck_their_input(prepare):
    cx = bernstein_complex(0, _s21())
    rebuild = prepare(cx)
    rebuild()
    for k in cx.diffs:
        cx.diffs[k] = _plus_one_at_origin(cx.diffs[k])
    with pytest.raises(ChainComplexError, match="d∘d"):
        rebuild()
