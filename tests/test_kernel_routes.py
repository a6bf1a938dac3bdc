"""The row-by-row kernels against the routes they replaced.

``symrep.induce`` writes each block's rows straight into its result,
``symrep.cap_cup`` writes every cap and cup from one block per key, each
``symrep.subset_move`` block acts by a padded ``coset_rep``, and
``symrep.frobenius_char`` reads each class trace off the product it never
forms.  ``strand_oracles`` keeps the block grids for ``SMat.block``, the
composed coset words and the full-product traces; results must be equal
exactly, and a module that is not a representation must still be refused
with the same message.  A module's character is read off its construction
(``parts``); the same module with its generators alone is traced, and the
two must agree.  The guards at the end count the work a creation
check and a cap or cup does, and the generator builds a ranked complex
or a creation Euler characteristic does not.
"""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from bosonfermion import branching, catbernstein, cli, homalg, symrep
from bosonfermion.catbernstein import (
    apply_sigma,
    bernstein_complex,
    bernstein_star_complex,
    sigma_complex,
    specht_creation_check,
)
from bosonfermion.errors import CharacterError, RepresentationError
from bosonfermion.homalg import module_direct_sum
from bosonfermion.linalg import SMat
from bosonfermion.partition_core import enumerate_partitions
from bosonfermion.symfunc import schur
from bosonfermion.symrep import (
    RepModule,
    frobenius_char,
    induce,
    regular_module,
    sign_module,
    specht_module,
    subset_move,
    trivial_module,
)

from strand_oracles import (
    grid_induce,
    grid_subset_move,
    product_frobenius_char,
    subset_coset_word,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

MODULES = {
    **{f"trivial:{n}": (trivial_module, n) for n in range(5)},
    **{f"sign:{n}": (sign_module, n) for n in range(2, 5)},
    **{"S:" + ",".join(map(str, lam)): (specht_module, lam)
       for n in range(1, 5) for lam in enumerate_partitions(n)},
    "reg:3": (regular_module, 3),
}


def build(key):
    make, arg = MODULES[key]
    return make(arg)


def count_generator_builds(monkeypatch):
    """The modules of positive dimension whose generator list is made from
    now on: a list passed to ``RepModule`` counts at construction, a
    builder when it runs."""
    builds, init = [], RepModule.__init__

    def counted(self, degree, dim, gens, parts=None):
        if not callable(gens):
            if dim:
                builds.append(self)
            return init(self, degree, dim, gens, parts)

        def build():
            builds.append(self)
            return gens()
        return init(self, degree, dim, build, parts)

    monkeypatch.setattr(RepModule, "__init__", counted)
    return builds


@pytest.mark.parametrize("key", MODULES)
def test_induce_equals_the_block_grid(key, monkeypatch):
    # the generators are built on their first read, and only then
    m = build(key)
    builds = count_generator_builds(monkeypatch)
    for k in range(4):
        sign = [-SMat.identity(m.dim)] * (k - 1) if k else []
        # the scalar -1 stands for the sign matrices
        for high, grid_high in ((None, None), (sign, sign), (-1, sign)):
            fast = induce(m, k, high)
            assert not builds, (k, high)
            slow = grid_induce(m, k, grid_high)
            assert (fast.degree, fast.dim) == (slow.degree, slow.dim)
            builds.clear()
            assert fast.gens == slow.gens, (k, high)
            assert builds == [fast] and fast.gens is fast.gens
            builds.clear()


@pytest.mark.parametrize("key", MODULES)
def test_direct_sum_is_built_on_first_read_as_block_diag(key, monkeypatch):
    m, point = build(key), trivial_module(0)
    builds = count_generator_builds(monkeypatch)
    parts = [m, induce(point, m.degree), m]
    total = module_direct_sum(parts, m.degree)
    assert not builds and total.dim == sum(p.dim for p in parts)
    assert total.gens == [SMat.block_diag([p.gens[i] for p in parts])
                          for i in range(max(0, m.degree - 1))]
    # the sum's builder reads the lazy summand's generators, if it has any
    assert builds == [total, parts[1]][:1 + (m.degree > 1)]


@pytest.mark.parametrize("key", [*MODULES, "reg:1", "reg:2", "reg:4"])
def test_caps_and_cups_equal_the_block_grid(key):
    m = build(key) if key in MODULES else regular_module(int(key[4:]))
    for k in range(1, m.degree + 1):
        assert (subset_move(m, k, cup=False)
                == grid_subset_move(m, k, cup=False)), k
    for k in range(m.degree + 1):
        assert (subset_move(m, k, cup=True)
                == grid_subset_move(m, k, cup=True)), k


class _WordModule:
    """A stand-in module of degree n whose action returns the permutation
    itself, so a block shows the word it acts by."""

    def __init__(self, n):
        self.degree, self.dim = n, 1

    def act_perm(self, p):
        return p


def test_cap_and_cup_words_equal_the_coset_composition(monkeypatch):
    # every (size, B, pos) triple on n <= 8 letters, not only the first
    # pair of each (j, pos) key that cap_cup asks for
    words = []

    def every_pair(n, size, cup, signed, block, shape):
        for b in combinations(range(1, n + 1), size):
            for pos in range(size):
                words.append((n, b, pos, cup, block(b, pos)))

    monkeypatch.setattr(symrep, "cap_cup", every_pair)
    for n in range(1, 9):
        for size in range(1, n + 1):
            subset_move(_WordModule(n), size, cup=False)
            subset_move(_WordModule(n), size - 1, cup=True)
    assert len(words) == 2 * sum(n << (n - 1) for n in range(1, 9))
    for n, b, pos, cup, w in words:
        assert w == subset_coset_word(n, b, pos, cup), (n, b, pos, cup)


@pytest.mark.parametrize("key", MODULES)
def test_chain_group_characters_equal_the_product_traces(key):
    m = build(key)
    complexes = [sigma_complex(-1, m), sigma_complex(1, m)]
    for a in (-1, 0, 1):
        complexes += [bernstein_complex(a, m), bernstein_star_complex(a, m)]
    for cx in complexes:
        for group in cx.modules.values():
            assert frobenius_char(group) == product_frobenius_char(group)


def test_a_chain_group_with_fractional_generators_is_compared():
    # seminormal S^(2,1) has s_2 entries of 1/2, and so do its cells
    cx = bernstein_complex(1, specht_module((2, 1)))
    assert any(g.den > 1 for group in cx.modules.values() for g in group.gens)


@pytest.mark.parametrize("entry", [2, 3, "1/2", 0, -5])
def test_non_representations_are_refused_by_both_routes(entry):
    bogus = RepModule(2, 1, [SMat.from_dense([[entry]])])
    with pytest.raises(CharacterError) as new:
        frobenius_char(bogus)
    with pytest.raises(CharacterError) as old:
        product_frobenius_char(bogus)
    assert str(new.value) == str(old.value)


def traced_char(m):
    """``frobenius_char`` of m's generators alone: a module with no
    ``parts`` is traced class by class."""
    return frobenius_char(RepModule(m.degree, m.dim, m.gens))


@pytest.mark.parametrize("key", MODULES)
def test_cells_and_cables_read_off_their_construction_equal_the_traces(key):
    # sigma cells (twist), annihilation cells and column cuts (sign-induced),
    # the row cables of the vanishing check (trivially induced) and the
    # sigma cells over the first one (a twist of an induced module)
    m = build(key)
    mods = [catbernstein._sigma_cell(base, k).sub
            for base in (m, induce(m)) for k in range(base.degree + 1)]
    for a in (-1, 0, 1):
        op = catbernstein._BernsteinOp(a, star=True)
        mods += [cell.sub for cell in op.cells(m).values()]
    mods += [symrep.orbit_table((1,) * k, m)[0] for k in (2, 3)]
    mods += [induce(m, k) for k in (1, 2)]
    assert {mod.parts[0] for mod in mods} == {"twist", "induce"}
    assert {mod.parts[3] for mod in mods if mod.parts[0] == "induce"} == {
        1, -1}
    for mod in mods:
        assert frobenius_char(mod) == traced_char(mod), mod.parts[:3:2]


def test_cat_suite_chain_group_characters_equal_the_traces(
        monkeypatch, capsys):
    # every character the default battery takes, chain groups included
    seen, read = [], symrep.frobenius_char

    def recorded(m):
        seen.append(m)
        return read(m)

    for module in (homalg, catbernstein):
        monkeypatch.setattr(module, "frobenius_char", recorded)
    assert cli.main(["cat", "suite", "--json"]) == 0
    capsys.readouterr()
    kinds = {(m.parts or ("traced",))[0] for m in seen}
    assert kinds == {"sum", "traced"}, kinds
    for m in seen:
        assert read(m) == traced_char(m), m


def test_the_integrality_gate_runs_on_an_induced_character():
    # s_1 = [2] is no representation: the induced class function puts 3/2
    # on s_3, and the character read off the construction is refused too
    bogus = induce(RepModule(2, 1, [SMat.from_dense([[2]])]), 1)
    with pytest.raises(CharacterError, match="3/2"):
        frobenius_char(bogus)


# -- work-count guards -----------------------------------------------------------


def test_creation_cells_cut_without_whiskering_or_identity_products(
        monkeypatch):
    lifts, products = [], []
    lift, matmul = branching._lift_matrix, SMat.__matmul__

    def counted_lift(*args):
        lifts.append(args)
        return lift(*args)

    def counted_matmul(self, other):
        products.append(1)
        return matmul(self, other)

    for module in (branching, catbernstein):
        monkeypatch.setattr(module, "_lift_matrix", counted_lift)
    monkeypatch.setattr(SMat, "__matmul__", counted_matmul)
    assert specht_creation_check((2, 2, 1)).passed
    assert not lifts
    assert len(products) <= 52, len(products)


def test_induce_and_subset_move_assemble_no_block_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("assembled a block grid")

    monkeypatch.setattr(SMat, "block", staticmethod(refuse))
    m = specht_module((2, 1))
    induce(m, 2).gens
    induce(m, 2, [-SMat.identity(m.dim)]).gens
    subset_move(m, 2, cup=False)
    subset_move(m, 1, cup=True)


@pytest.mark.parametrize("make, arg", [
    (trivial_module, 4), (specht_module, (2, 1, 1)), (specht_module, (2, 2)),
    (trivial_module, 5), (specht_module, (3, 2)), (specht_module, (3, 1, 1))])
def test_caps_and_cups_build_one_block_per_key(make, arg, monkeypatch):
    # a pair's block depends only on (j, pos), j = B[pos] - pos, so the
    # kernel asks for (n - size + 1)·size blocks, not size·C(n, size)
    kernel, keys = symrep.cap_cup, []

    def counted(n, size, cup, signed, block, shape):
        def counted_block(b, pos):
            keys.append((b[pos] - pos, pos))
            return block(b, pos)
        return kernel(n, size, cup, signed, counted_block, shape)

    monkeypatch.setattr(symrep, "cap_cup", counted)
    m = make(arg)
    n = m.degree
    for k, cup in [(k, False) for k in range(1, n + 1)] + [
            (k, True) for k in range(n + 1)]:
        keys.clear()
        subset_move(m, k, cup)
        size = k + 1 if cup else k
        assert len(keys) == len(set(keys)) == (n - size + 1) * size, (k, cup)


def test_creation_euler_characteristic_builds_no_generators(monkeypatch):
    # the final chain groups are sums of induced cells: their characters
    # are read off the construction and the cut modules' traces
    builds = count_generator_builds(monkeypatch)
    cx = catbernstein.compose_bernstein(
        catbernstein.creation_word((3, 2)), trivial_module(0))
    builds.clear()
    assert cx.euler_frobenius() == schur((3, 2))
    assert not builds


@pytest.mark.parametrize("key", ["S:2,1", "trivial:3", "reg:3"])
def test_ranked_projector_complexes_build_no_generators(key, monkeypatch):
    # betti() reads the differentials only; the caps and cups act through
    # the input's generators, which exist before the count starts
    m = build(key)
    builds = count_generator_builds(monkeypatch)
    minus = sigma_complex(-1, m)
    once, plus = minus.betti(), sigma_complex(1, m).betti()
    assert {-k: v for k, v in plus.items()} == once
    assert not builds
    # as in the idempotence check, the input's chain groups are read
    # (for its Euler characteristic) before the projector is applied again
    for group in minus.modules.values():
        group.gens
    builds.clear()
    assert apply_sigma(-1, minus).betti() == once
    assert not builds


def test_a_wrong_builder_is_refused_on_first_read_under_optimized_python():
    # python -O strips assert statements; the count and shape gate must
    # still run on a built list
    code = (
        "from bosonfermion.errors import RepresentationError\n"
        "from bosonfermion.linalg import SMat\n"
        "from bosonfermion.symrep import RepModule\n"
        "for gens in ([SMat.identity(1)],\n"
        "             [SMat.identity(1), SMat.identity(2)]):\n"
        "    m = RepModule(3, 1, lambda: gens)\n"
        "    try:\n"
        "        m.gens\n"
        "    except (RepresentationError, ValueError) as exc:\n"
        "        print(type(exc).__name__, exc)\n"
        "    else:\n"
        "        print('accepted')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "RepresentationError RepModule(degree=3, dim=1) needs 2 generators, "
        "got 1",
        "ValueError RepModule(degree=3, dim=1): s_2 is "
        + repr(SMat.identity(2)),
    ]
    for gens, error in (([SMat.identity(1)], RepresentationError),
                        ([SMat.identity(1), SMat.identity(2)], ValueError)):
        m = RepModule(3, 1, lambda: gens)
        with pytest.raises(error):
            m.gens
        with pytest.raises(error):
            RepModule(3, 1, gens)
