"""Named group constructions and their frozen expectation blocks."""

from types import SimpleNamespace

import pytest

from charval import catalog
from charval.catalog import CatalogEntry, ConstructionMismatch, UnknownName
from charval.chartab import character_table
from charval.permcore import a5a6_free, conjugacy_classes, parse_group_file
from tests import helpers as H


def test_tier_listings():
    core = catalog.names(tier="core")
    assert len(core) >= 50
    assert core[0] == "trivial"
    orders = [catalog.entry(n).order for n in core]
    assert orders == sorted(orders)
    assert catalog.names(tier="large") == ["alt_7", "sym_7"]
    assert set(catalog.names(tier="optional")) == \
        {"extraspecial_32_minus", "extraspecial_32_plus", "sg_250_14"}
    assert set(catalog.names()) == \
        set(core) | set(catalog.names(tier="large")) \
        | set(catalog.names(tier="optional"))


def test_aliases_resolve_to_canonical_entries():
    assert catalog.resolve_name("s4") == "sym_4"
    assert catalog.resolve_name("he3") == "sg_27_3"
    assert catalog.resolve_name("v4") == "elab_2_2"
    assert catalog.resolve_name("d8") == "dihedral_8"
    assert catalog.bundle("s4") is catalog.bundle("sym_4")


def test_parameterized_names():
    assert catalog.resolve_name("frob_3k_2", 2) == "frob_3k_2_2"
    assert catalog.build("gamma", 5).order == 20
    assert catalog.entry("cyclic", 9).order == 9


def test_unknown_names_raise():
    with pytest.raises(UnknownName):
        catalog.entry("monster")
    with pytest.raises(UnknownName):
        catalog.bundle("sg_999_1")


def test_unknown_name_message_is_plain():
    # a KeyError's str() is the repr of its argument, quotes included
    with pytest.raises(UnknownName) as exc:
        catalog.entry("monster")
    assert str(exc.value) == "no catalog entry named 'monster'"
    with pytest.raises(UnknownName) as exc:
        catalog._gamma(6)
    assert str(exc.value) == "no field table for gamma(6)"


def test_declared_orders_are_enforced(monkeypatch):
    bogus = CatalogEntry(name="bogus_c6", order=7, source="test",
                         builder=lambda: catalog.build("cyclic_6"))
    monkeypatch.setitem(catalog._REGISTRY, "bogus_c6", bogus)
    with pytest.raises(ConstructionMismatch):
        catalog.build("bogus_c6")


def test_builders_are_deterministic():
    a = catalog.build("sg_81_4")
    b = catalog.build("sg_81_4")
    assert [e.images for e in a.elements] == [e.images for e in b.elements]


def test_composition_factor_flags():
    # the chief factors of every entry give the flags once set by hand
    for name in catalog.names():
        assert a5a6_free(catalog.bundle(name)[3]) == \
            (name not in H.A5A6_ENTRIES), name
    # A5 wr C2: its one nonabelian chief factor is A5 x A5, of order 3600
    wreath = parse_group_file("degree 10\n(1 2 3)\n(1 2 3 4 5)\n"
                              "(1 6)(2 7)(3 8)(4 9)(5 10)\n", bound=7200)
    assert not a5a6_free(character_table(wreath))
    with pytest.raises(ValueError):
        a5a6_free(SimpleNamespace(group=SimpleNamespace(order=20160)))


def test_direct_product_entries_multiply_class_counts():
    _, g, cd, _, _ = catalog.bundle("c2xs3")
    assert g.order == 12 and cd.n_classes == 6
    _, g, cd, _, _ = catalog.bundle("d8xc2xc2")
    assert g.order == 32 and cd.n_classes == 20


def test_quaternion_group_has_one_involution():
    g = catalog.build("q8")
    assert sum(1 for i in range(g.order) if g.element_order(i) == 2) == 1


@pytest.mark.parametrize("name", catalog.names(tier="core"))
def test_core_expectation_blocks(name):
    failures = catalog.check_expected(name)
    assert not failures, failures


def test_large_tier_spot_check():
    ent = catalog.entry("alt_7")
    assert ent.order == 2520 and ent.tier == "large"
    failures = catalog.check_expected("alt_7")
    assert not failures, failures


def test_cache_round_trip_is_stable():
    import json
    _, _, _, _, rep0 = catalog.bundle("sg_36_9")
    first = json.dumps(rep0.to_json_dict())
    catalog.clear_caches()
    _, _, _, _, rep1 = catalog.bundle("sg_36_9")
    assert json.dumps(rep1.to_json_dict()) == first
