"""Named group constructions and their frozen expectation blocks."""

import hashlib
import json
from types import SimpleNamespace

import pytest

from charval import catalog, permcore, verify
from charval.catalog import CatalogEntry, ConstructionMismatch, UnknownName
from charval.chartab import character_table
from charval.permcore import (
    InvariantViolation, a5a6_free, conjugacy_classes, parse_group_file,
)
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
        catalog.build("gamma", 6)
    assert str(exc.value) == "no catalog entry named 'gamma_6'"


def test_declared_orders_are_enforced(monkeypatch):
    bogus = CatalogEntry(name="bogus_c6", order=7, source="test",
                         builder=lambda: catalog.build("cyclic_6"))
    monkeypatch.setitem(catalog._REGISTRY, "bogus_c6", bogus)
    with pytest.raises(ConstructionMismatch):
        catalog.build("bogus_c6")


# sha256 of json [degree, generator images] for every entry.  BFS order,
# class representatives and every output byte follow from the generators,
# so a builder may change only if it keeps these.
GENERATOR_DIGESTS = {
    "trivial":
        "4f52b7bcfc1022644ee3e70f3a5f7173f52ab2fa600708d735c6349451f07b94",
    "cyclic_2":
        "812ea06e02f1ed507e3a393732c326679084ea1e379c7a5bb8638a95ece5f784",
    "cyclic_3":
        "e50e8853a646afe7a50579c7b4a18ee4a7f87d84f092f5a3ff0cc89046fa16b0",
    "cyclic_4":
        "f4e68af6f8da4f27583aec1768671910cb68e83fe963164cb768be3394762d89",
    "elab_2_2":
        "bba33108185052e9f255654ea5ea79b92866f0a780f15f6d65ff18602b2ccdf3",
    "cyclic_5":
        "9b24809b4499919b0954a11282c33dbeb0eeb46deca7f40e8b7f9d404228390e",
    "cyclic_6":
        "76a8c5f71c777fc3230da9a24d31bacd34d933ff343a085e5559a00c39aa6662",
    "frob_3k_2_1":
        "a2ff760539ad46c2a84b021b03e05295bc5391397544b05879d9c2e77c8b2417",
    "gamma_3":
        "a2ff760539ad46c2a84b021b03e05295bc5391397544b05879d9c2e77c8b2417",
    "sym_3":
        "f51e1cb7bd29db96b90bf9c31d2d091ba51f0fa4e6eaace2b39d15de9e13b40b",
    "cyclic_7":
        "4bfe51d2c034cb5f311b3741c9b32f45cacba0076394c6bf3bf393256ad9f8f6",
    "cyclic_8":
        "5b1af0bf0401f13ae470e211f585e6213c1c4439aad97b6b6964856c27a0b283",
    "dihedral_8":
        "65d61d49b9ccc44cdf86e0225f45f75e7c934cc1796d76f9a6aedd92a9322271",
    "elab_2_3":
        "e08bb9f1bbd28e82dfc93bee0cef5db046b5cd007ad6a4e7d0af56e985c8c717",
    "q8":
        "3dc7c843e395dc533292bd5047462d571704771f9ef1cad3caf6eea7a0edc3ca",
    "cyclic_9":
        "84a753f6efa7034a2c3a01e5787db5058731649ca687f197704cfa6993115526",
    "elab_3_2":
        "9a12a7591b7e209434694cf9f0d55ec2cbabedce98d938aa8c47061b74a4d46e",
    "dihedral_10":
        "d3446f4da52ce35d39d71ff907dd179c8914a298e2c9549aeee2009a16b2f0bf",
    "alt_4":
        "d0858ba275f5d488fe9eda8de8f11ac9802563a36aa8207b9bf3f2fa3ce0dff3",
    "c2xs3":
        "341d50b04c8a9c5e2508e25ea93b772d4ab5318aa9dab918e9e2dd22e300b309",
    "cyclic_12":
        "5629eb86286829016fd6be5d094d8cb5319a313718e378392a6fe9c9bf3b1ba3",
    "dihedral_12":
        "dc9df9b4dbe21eb5a8149cb8a256c63eab27ab878535e6a4f66c49aff20759f3",
    "gamma_4":
        "a268ef14c4f154bc9dbf65b98d50cc8e64cb2767200d8011f8027500fe77680d",
    "dihedral_14":
        "82c8a1fd353f13e643c893d1c0541a08bd866a1a595f4f64357d4afcee58cb7b",
    "d8xc2":
        "fd3d1e7411d846283838283203bf796e13f6bed11dd79e87d4055f63fbab24c5",
    "q8xc2":
        "aa5b9df153deb9d343d2bc6614cec882261631bd628e53b7e3dafa7c518b5366",
    "dihedral_18":
        "a61d957173b58bde06fee7c2030986ff6fc23050a805ab2c57a8a966412fac89",
    "frob_3k_2_2":
        "1fc92bed87685ed1ba52b4441c5b7b0ecf436b40c08b4e99310d0f0b66174fb5",
    "gamma_5":
        "17f0363460be0ddb56a1fcf4056f7835d80b22c83cb2ad856186b8571b38d836",
    "sg_21_1":
        "86cf83141a5f39c139f9c6c64194f3ad808639d7b39088b2ae8190759c58975f",
    "dihedral_22":
        "84e62ddee81f8a88258bf9171e03a3b2ba4fc401426dcf7d642a4c0706522040",
    "sym_4":
        "0165a9ef3a8e726fe1c138c7fc762b65d40abb7df69777f368a88aac2b6711de",
    "sg_27_3":
        "8ec54f91f43bb149d9501c849ca961f7c797fdd7650b14bf5e8dd00e999474b1",
    "sg_27_4":
        "f047ee139d60808c99c8bc1004361d06b44c8d6a473c35b8ddd9566101e8e8eb",
    "d8xc2xc2":
        "032eb6ae783d63108d67b9ac6282d8156d0ea16de5dec4eae9b7c444f85d51bb",
    "extraspecial_32_minus":
        "00e2dbf33310f5ce237aa64d615874a5abf3cd0bc2cba60cf6e4d2a5f1eec817",
    "extraspecial_32_plus":
        "dbfd204b36bcf70c18cc9e22c651905561890937b21d5ddefc94fcf9866cb84d",
    "sg_36_9":
        "f558969f52726d9b34052a18d713ed8843343dc6d12f2c60ad49058a7337a41a",
    "gamma_7":
        "7e037559e49a051bbdf6fe12f75d908e07d35d16c5ff3109aa9f608b8c6d7285",
    "sg_50_4":
        "8362fdec699534202fd88a5384318532bda5f4c931e0fb7062c3a31ad251af7b",
    "frob_3k_2_3":
        "8ae86a7734851cfb9e75e1d10a9f030ca2fd7f0c98660ac98cae5a31074afb92",
    "sg_55_1":
        "077d607f727b2515e4d9435cac86b294b29d4b2edf2b3d2859e3789aad9b025c",
    "gamma_8":
        "67ee2d80d7c608b857e89bb6a13445774ebc41e6aec1668bfb521752d5070253",
    "alt_5":
        "487556ffbf0ebd0dafad468cf833bb246d6b51936386aa2610f8d077d76e2e6d",
    "gamma_9":
        "7ae725334020095746c217db2ac23b30e0f2cf408e09e1fbf77681fda02917a6",
    "sg_78_1":
        "1bf115f727334878dcd20c13010f0666aa565da465e35f1493e2ef23b8ebf5d9",
    "sg_80_49":
        "5e6df3766d4ab3fe9e1015bf56a5a893d80f19634e05507513696fe0f53bd622",
    "sg_81_12":
        "bff95d844cf64e9365830727e6ebbbe41f8c62d7c8b5cd8ea224fb65de484f90",
    "sg_81_13":
        "6f71ee1772a16be50c9067b13f97b345379c1256b1ea6541b2fedca5f03dba84",
    "sg_81_3":
        "e0be93ae545d65d623655e9774735b04fa8b712be05133d5aae57c89d7f855f1",
    "sg_81_4":
        "be753478001ab00ed684a81c3fafe51acd4ab3a610355b86814a13be1769672a",
    "sym_5":
        "21d9e091df2031a65281a047c3326b88eefe642489cf3c107934d662fac6dedf",
    "sg_136_12":
        "5fe9ff607d103a801e4e2b0d60068dc213d6784f2171ba6fc038c6389e6f4e7e",
    "sg_147_4":
        "e2fc49a365fc6cb97a6988de13323e7f08880b0ec59c2fab196308951ab5f05d",
    "sg_250_14":
        "f3cc207a45ef8d51db9e26961d74831df8a6e085969211e16437f842615c977a",
    "alt_6":
        "cdb7470f36272a122a3eae06c34696d1b36f76381eddd8a480e236d67bd43812",
    "sym_6":
        "0793de5b2ac7ef8574468ce7b002fb9fc4f6422005401d15e0a08e8e92f11644",
    "alt_7":
        "2055171167163ed591f67ceb70513c0847498b5a78f9435f897b2a8f048b22bf",
    "sym_7":
        "eaef10d4c814a4f9334becb481cae179705b8eb15d7704e2a3657c3e8f815a64",
}


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_generator_images_are_pinned(name):
    g = catalog.build(name)
    blob = json.dumps([g.degree, [list(p.images) for p in g.generators]])
    assert hashlib.sha256(blob.encode()).hexdigest() == GENERATOR_DIGESTS[name]


def test_generator_digests_cover_every_entry():
    assert set(GENERATOR_DIGESTS) == set(catalog.names())


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


def _missed(key, want):
    """A pin that the fact meeting want does not meet."""
    if isinstance(want, bool):
        return not want
    if want is None:
        return 0
    if isinstance(want, int):
        return want - 1 if key == "row_cv_max" else want + 1
    if isinstance(want, tuple):
        return want + (0,)
    return want | {"?"}


@pytest.mark.parametrize("name", catalog.names())
def test_each_missed_pin_gives_one_mismatch_naming_it(name, monkeypatch):
    ent = catalog.entry(name)
    for key, want in ent.expected.items():
        wrong = _missed(key, want)
        monkeypatch.setitem(catalog._REGISTRY, name,
                            ent._replace(expected={**ent.expected, key: wrong}))
        bad = catalog.check_expected(name)
        assert len(bad) == 1, (key, bad)
        assert bad[0].startswith(f"{name}: {key} expected {wrong!r}, got "), bad


def test_unknown_pin_is_refused_at_registration():
    # a misspelled key would otherwise never be checked
    bogus = CatalogEntry("bogus_c2", 2, "test",
                         builder=lambda: catalog.build("cyclic_2"),
                         expected={"cdc_sise": 1})
    with pytest.raises(InvariantViolation, match="cdc_sise"):
        catalog._add(bogus)
    assert "bogus_c2" not in catalog.names()


@pytest.mark.parametrize("key, value, pin", [("row_cv_max", "4", "int"),
                                             ("cdc_size", "2", "int"),
                                             ("cdc_size", True, "int"),
                                             ("degrees", [1, 1, 2, 3, 3], "tuple[int, ...]"),
                                             ("degrees", (1, 1, 2, 3, "3"), "tuple[int, ...]"),
                                             ("dl", "2", "int | None")])
def test_a_pin_of_the_wrong_type_is_refused_at_registration(key, value, pin, monkeypatch):
    # "4" would raise TypeError at check time and "2" would be a mismatch
    # there; both are refused when the entry is registered
    ent = catalog.entry("sym_4")
    monkeypatch.delitem(catalog._REGISTRY, "sym_4")
    with pytest.raises(InvariantViolation) as exc:
        catalog._add(ent._replace(expected={**ent.expected, key: value}))
    assert str(exc.value) == f"catalog entry 'sym_4' pins {key} = {value!r}, not {pin}"
    assert "sym_4" not in catalog.names()
    catalog._add(ent)
    assert catalog.check_expected("sym_4") == []


def test_check_expected_builds_the_lattice_at_most_once(monkeypatch):
    calls = []

    def counting(table):
        calls.append(table)
        return permcore.normal_masks(table)

    monkeypatch.setattr(catalog, "normal_masks", counting)
    lattice = {key for key, claim in catalog.CLAIMS.items() if claim.lattice}
    for name in catalog.names():
        calls.clear()
        assert catalog.check_expected(name) == [], name
        assert len(calls) == bool(lattice & catalog.entry(name).expected.keys()), name
    for name in ("dihedral_10", "sg_50_4"):
        assert len(lattice & catalog.entry(name).expected.keys()) == 2, name


def test_every_claim_is_pinned_or_scanned():
    """A claim that no entry pins and no scan predicate reads is dead code."""
    pinned = {key for name in catalog.names() for key in catalog.entry(name).expected}
    scanned = set(verify.SCAN_CLAIMS.values())
    assert scanned <= set(catalog.CLAIMS)
    assert not set(catalog.CLAIMS) - pinned - scanned


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
