"""The mutant list of ``tools/mutate.py`` stays applicable.

Each mutant's old text must occur exactly once in its file, or the
mutation run refuses to start; this catches a stale entry in the tier-1
run instead.  Each mutated file must compile, so that a mutant is killed
by a test that decides it, not by the collection error of a file that
no longer parses.  The mutation run copies no ``tools/`` into its trees,
so there these tests skip and can kill no mutant.
"""

import importlib.util
import pathlib

import pytest

MUTATE = pathlib.Path(__file__).resolve().parents[1] / "tools" / "mutate.py"


@pytest.fixture(scope="module")
def mutate():
    if not MUTATE.is_file():
        pytest.skip("no tools/mutate.py beside tests/")
    spec = importlib.util.spec_from_file_location("mutate", MUTATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once(mutate):
    assert mutate._stale(mutate.MUTANTS) == []


def test_every_mutated_file_compiles(mutate):
    for name, path, old, new in mutate.MUTANTS:
        text = (mutate.ROOT / path).read_text().replace(old, new, 1)
        compile(text, f"{path} ({name})", "exec")
