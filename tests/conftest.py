import os
import pathlib

import pytest

import effnum

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fresh_env() -> dict:
    """The environment of a new interpreter that imports effnum from the tree under test."""
    src = str(pathlib.Path(effnum.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES
