import pytest

from meterfuse.errors import EmptyWindow, MeterFuseError, TooShort, naming


def test_naming_sets_entry_on_the_kinds_given():
    with pytest.raises(TooShort) as exc:
        with naming("HIST-1", EmptyWindow, TooShort):
            raise TooShort("too short")
    assert exc.value.entry == "HIST-1"


def test_naming_leaves_other_kinds_alone():
    with pytest.raises(EmptyWindow) as exc:
        with naming("HIST-1", TooShort):
            raise EmptyWindow("empty")
    assert exc.value.entry is None


def test_naming_without_kinds_names_every_package_error():
    with pytest.raises(MeterFuseError) as exc:
        with naming(3):
            raise MeterFuseError("bad")
    assert exc.value.entry == 3
    with pytest.raises(KeyError):
        with naming(3):
            raise KeyError("not a package error")

