"""The project metadata in ``pyproject.toml`` describes this package."""

import tomllib
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_matches_the_package():
    with PYPROJECT.open("rb") as f:
        project = tomllib.load(f)["project"]
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__
    assert set(project["dependencies"]) == {"numpy", "scipy"}
