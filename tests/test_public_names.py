"""Every public name has a caller outside the module that defines it.

A name stays in hyperwedge.__all__ only while another package module (the
CLI included), a README example, an acceptance test or the benchmark refers
to it by word; a name nothing else calls leaves the package.
"""
import re
from pathlib import Path

import hyperwedge

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(hyperwedge.__file__).parent


def test_every_public_name_is_referenced_outside_its_module():
    places = [*PACKAGE.glob("*.py"), ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
              *(ROOT / "bench").glob("*.py")]
    texts = {path: path.read_text() for path in places}
    uncalled = []
    for name in hyperwedge.__all__:
        home = PACKAGE / (getattr(hyperwedge, name).__module__.rpartition(".")[2] + ".py")
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(text) for path, text in texts.items()
                   if path not in (home, PACKAGE / "__init__.py")):
            uncalled.append(name)
    assert uncalled == []
