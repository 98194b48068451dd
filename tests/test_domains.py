import re
from fractions import Fraction

import pytest

from wehrl_lab.domains import (PRESETS, DomainParams, get_domain,
                               hc_admissible, preset_table, so_2n, su_pq)

# Known complex dimensions of the presets, for the cross-table check.
CLASSICAL_DIMENSION: dict[str, int] = {
    "disc": 1,
    "SU(1,1)": 1,
    "SU(2,1)": 2,
    "SU(2,2)": 4,
    "SU(3,1)": 3,
    "Sp(2,R)": 3,
    "Sp(3,R)": 6,
    "SO(2,3)": 3,
    "SO(2,4)": 4,
    "SO(2,5)": 5,
    "SO*(8)": 6,
    "E6": 16,
    "E7": 27,
}


def test_derived_invariants_disc():
    d = PRESETS["disc"]
    assert (d.p, d.N, d.n1) == (2, 1, 1)


def test_derived_invariants_match_classical_dimensions():
    for name, dim in CLASSICAL_DIMENSION.items():
        assert PRESETS[name].N == dim, name


def test_genus_values():
    assert PRESETS["Sp(2,R)"].p == 3
    assert PRESETS["SU(2,2)"].p == 4
    assert PRESETS["E7"].p == 18


def test_sp2_so23_same_parameters():
    a, b = PRESETS["Sp(2,R)"], PRESETS["SO(2,3)"]
    assert (a.r, a.a, a.b) == (b.r, b.a, b.b) == (2, 1, 0)


def test_admissibility_threshold():
    d = PRESETS["Sp(2,R)"]  # p = 3
    assert not hc_admissible(d, Fraction(2))
    assert hc_admissible(d, Fraction(5, 2))
    assert hc_admissible(d, 3)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        DomainParams("bad", r=0, a=1, b=0)
    with pytest.raises(ValueError):
        DomainParams("bad", r=2, a=-1, b=0)
    with pytest.raises(ValueError):
        so_2n(2)


def test_su_pq_orders_arguments():
    assert su_pq(1, 3) == su_pq(3, 1)


def test_get_domain_parsing():
    assert get_domain("disc").family_label == "SU(1,1)"
    custom = get_domain("2,1,0")
    assert (custom.r, custom.a, custom.b) == (2, 1, 0)
    with pytest.raises(KeyError):
        get_domain("nope")


@pytest.mark.parametrize("text", ["2,3,x", "1.5,2,3", "1,2", "1,2,3,4", ""])
def test_a_malformed_triple_is_an_unknown_domain(text):
    # "2,3,x" and "1.5,2,3" raised "invalid literal for int()", naming no
    # domain; a triple that is not three ints is now an unknown domain.
    with pytest.raises(KeyError,
                       match=f"^\"unknown domain {re.escape(repr(text))}; "):
        get_domain(text)


def test_a_triple_of_ints_keeps_its_range_messages():
    with pytest.raises(ValueError, match="^r must be >= 1 and an int, got "
                                         "r=0$"):
        get_domain("0,1,1")
    with pytest.raises(ValueError, match="^a must be >= 0 and an int, got "
                                         "a=-1$"):
        get_domain("2,-1,0")


def test_preset_table_columns():
    rows = preset_table()
    assert {"family", "r", "a", "b", "p", "N", "n1"} <= set(rows[0])
    assert len(rows) == len({r["family"] for r in rows})
