"""The mutant list of ``tools/mutate.py`` stays applicable.

Each mutant's old text must occur exactly once in its file, or the
mutation run refuses to start; this catches a stale entry in the tier-1
run instead.  The mutation run copies no ``tools/`` into its trees, so
there this test skips and can kill no mutant.
"""

import importlib.util
import pathlib

import pytest

MUTATE = pathlib.Path(__file__).resolve().parents[1] / "tools" / "mutate.py"


def test_every_old_text_occurs_once():
    if not MUTATE.is_file():
        pytest.skip("no tools/mutate.py beside tests/")
    spec = importlib.util.spec_from_file_location("mutate", MUTATE)
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    assert mutate._stale(mutate.MUTANTS) == []
