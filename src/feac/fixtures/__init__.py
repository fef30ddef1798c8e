"""Bundled example scenarios."""

from importlib import resources


def hospital_text() -> str:
    """The worked hospital scenario: one fire, two wards, seven emergencies."""
    return resources.files(__package__).joinpath("hospital.feac").read_text(encoding="utf-8")
