import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import freenoise
from freenoise.fock import FockElement
from freenoise.words import Word

MODULES = ["freenoise"] + sorted(
    f"freenoise.{m.name}" for m in pkgutil.iter_modules(freenoise.__path__))

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _mentions(text: str, name: str) -> int:
    return len(re.findall(rf"\b{re.escape(name)}\b", text))


@pytest.mark.parametrize("name", MODULES[1:])
def test_every_exported_name_is_used(name):
    # A name in a submodule's __all__ must be used beyond its definition:
    # in its own module, another module under src/, perfbench/ or
    # README.md.  The export lists do not count, and neither do the
    # tests, so a helper only tests call fails.
    module = importlib.import_module(name)
    path = Path(module.__file__)
    own = re.sub(r"__all__ = \[.*?\]", "", path.read_text(), flags=re.S)
    others = [p for p in path.parent.glob("*.py") if p.name not in (path.name, "__init__.py")]
    others += [*ROOT.glob("perfbench/*.py"), ROOT / "README.md"]
    texts = [p.read_text() for p in others]
    unused = [n for n in getattr(module, "__all__", ())
              if _mentions(own, n) < 2 and not any(_mentions(t, n) for t in texts)]
    assert not unused


@pytest.mark.parametrize("cls", [Word, FockElement], ids=lambda c: c.__name__)
def test_every_public_member_is_read(cls):
    # A public method or property of Word or FockElement must be read as
    # ``.name`` somewhere under src/, perfbench/ or README.md.
    # A definition is not a read, and tests do not count, so a member
    # only tests call fails.
    members = [n for n, v in vars(cls).items() if not n.startswith("_")
               and (callable(v) or isinstance(v, (property, classmethod)))]
    paths = [*ROOT.glob("src/freenoise/*.py"), *ROOT.glob("perfbench/*.py"), ROOT / "README.md"]
    texts = [p.read_text() for p in paths if not p.name.startswith("test_")]
    unread = [n for n in members if not any(re.search(rf"\.{n}\b", t) for t in texts)]
    assert not unread


def test_every_private_helper_is_used():
    # A module-level private name under src/freenoise/ (``def _x``,
    # ``class _x`` or ``_X = ...``) must be mentioned beyond its own
    # definition somewhere there, so a helper that nothing in the
    # package reads any more fails.
    text = "\n".join(p.read_text() for p in ROOT.glob("src/freenoise/*.py"))
    names = set(re.findall(r"^(?:def|class)\s+(_\w+)", text, flags=re.M))
    for targets in re.findall(r"^(_\w+(?:\s*,\s*_\w+)*)\s*(?::[^=\n]*)?=(?!=)",
                              text, flags=re.M):
        names.update(re.split(r"\s*,\s*", targets))
    mentions = Counter(re.findall(r"\w+", text))
    orphans = sorted(n for n in names if not n.startswith("__") and mentions[n] < 2)
    assert not orphans
