import pytest

from dicke import DomainError, SpinSpecies, parse_twice, twice_to_str


def test_from_str_accepts_the_four_spins():
    assert SpinSpecies.from_str("1/2").twice_spin == 1
    assert SpinSpecies.from_str("1").twice_spin == 2
    assert SpinSpecies.from_str("3/2").twice_spin == 3
    assert SpinSpecies.from_str("2").twice_spin == 4


@pytest.mark.parametrize("bad", ["0", "5/2", "3", "half", ""])
def test_from_str_rejects_everything_else(bad):
    with pytest.raises(DomainError):
        SpinSpecies.from_str(bad)


def test_unsupported_twice_spin_rejected():
    with pytest.raises(DomainError):
        SpinSpecies(5)


def test_species_is_an_immutable_value():
    assert SpinSpecies(2) == SpinSpecies.from_str("1")
    assert hash(SpinSpecies(2)) == hash(SpinSpecies.from_str("1"))
    assert SpinSpecies(2) != SpinSpecies(4)
    assert repr(SpinSpecies(2)) == "SpinSpecies(twice_spin=2)"
    with pytest.raises(AttributeError):
        SpinSpecies(2).twice_spin = 4


def test_levels_run_from_top_to_bottom():
    assert SpinSpecies(3).twice_levels == (3, 1, -1, -3)
    assert SpinSpecies(4).n_levels == 5
    assert SpinSpecies(1).twice_levels == (1, -1)


def test_level_labels_match_half_integer_formatting():
    assert SpinSpecies(2).level_labels() == ("n_+1", "n_0", "n_-1")
    assert SpinSpecies(3).level_labels() == ("n_+3/2", "n_+1/2", "n_-1/2", "n_-3/2")


@pytest.mark.parametrize(
    "text,expected",
    [("3", 6), ("-1", -2), ("7/2", 7), ("-7/2", -7), ("0", 0), ("4/2", 4), ("3/1", 6)],
)
def test_parse_twice(text, expected):
    assert parse_twice(text) == expected


@pytest.mark.parametrize("bad", ["1/3", "x", "1.5", "", "1/0"])
def test_parse_twice_rejects_non_half_integers(bad):
    with pytest.raises(DomainError):
        parse_twice(bad)


def test_twice_to_str_round_trips():
    for tv in range(-9, 10):
        assert parse_twice(twice_to_str(tv)) == tv
