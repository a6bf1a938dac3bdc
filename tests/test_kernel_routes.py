"""The row-by-row kernels against the routes they replaced.

``symrep.induce`` and ``symrep.subset_move`` write each block's rows
straight into their result, and ``symrep.frobenius_char`` reads each class
trace off the product it never forms.  ``strand_oracles`` keeps the block
grids for ``SMat.block`` and the full-product traces; results must be
equal exactly, and a module that is not a representation must still be
refused with the same message.  The guards at the end count the work a
creation check does.
"""

import pytest

from bosonfermion import branching, catbernstein
from bosonfermion.catbernstein import (
    bernstein_complex,
    bernstein_star_complex,
    sigma_complex,
    specht_creation_check,
)
from bosonfermion.errors import CharacterError
from bosonfermion.linalg import SMat
from bosonfermion.partition_core import enumerate_partitions
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
)

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


@pytest.mark.parametrize("key", MODULES)
def test_induce_equals_the_block_grid(key):
    m = build(key)
    for k in range(4):
        sign = [-SMat.identity(m.dim)] * (k - 1) if k else []
        for high in (None, sign):
            fast, slow = induce(m, k, high), grid_induce(m, k, high)
            assert (fast.degree, fast.dim) == (slow.degree, slow.dim)
            assert fast.gens == slow.gens, (k, high is None)


@pytest.mark.parametrize("key", MODULES)
def test_caps_and_cups_equal_the_block_grid(key):
    m = build(key)
    for k in range(1, m.degree + 1):
        assert (subset_move(m, k, cup=False)
                == grid_subset_move(m, k, cup=False)), k
    for k in range(m.degree + 1):
        assert (subset_move(m, k, cup=True)
                == grid_subset_move(m, k, cup=True)), k


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
    induce(m, 2)
    induce(m, 2, [-SMat.identity(m.dim)])
    subset_move(m, 2, cup=False)
    subset_move(m, 1, cup=True)
