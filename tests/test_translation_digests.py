"""Translations pinned byte for byte: what the counters see, not only sizes.

``tests/golden/translation_sha256.txt`` holds one line per problem: the
property, the scope, the symmetry breaking (``none`` or ``adjacent``),
``phi`` or ``not`` for the negated property, and the sha256 of the problem's
grounded formula ``repr``, CNF clause list, sorted projection and
``stats()``.  Every property is pinned at scopes 2-5 both ways, 256
problems.  The golden tables pin only the sizes Table 1 and Figure 1 print;
a change to grounding, to formula construction or to Tseitin that reorders
or renames a single clause fails here.  A change that alters a translation
on purpose regenerates the file with

    PYTHONPATH=src python tests/test_translation_digests.py

and explains the diff.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.spec import PROPERTIES, SymmetryBreaking, translate

DIGESTS = Path(__file__).parent / "golden" / "translation_sha256.txt"
SCOPES = (2, 3, 4, 5)
SYMMETRIES = ("none", "adjacent")


def digest(problem) -> str:
    h = hashlib.sha256()
    for part in (
        repr(problem.formula),
        repr(problem.cnf.clauses),
        repr(sorted(problem.cnf.projection)),
        repr(problem.stats()),
    ):
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def digest_lines(prop) -> list[str]:
    lines = []
    for scope in SCOPES:
        for symmetry in SYMMETRIES:
            breaking = None if symmetry == "none" else SymmetryBreaking(symmetry)
            for negate in (False, True):
                problem = translate(prop, scope, symmetry=breaking, negate=negate)
                sign = "not" if negate else "phi"
                lines.append(f"{prop.name} {scope} {symmetry} {sign} {digest(problem)}")
    return lines


@pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
def test_translation_matches_pinned_digests(prop):
    pinned = [line for line in DIGESTS.read_text().splitlines() if line.split()[0] == prop.name]
    assert digest_lines(prop) == pinned


if __name__ == "__main__":
    DIGESTS.write_text("".join(line + "\n" for prop in PROPERTIES for line in digest_lines(prop)))
