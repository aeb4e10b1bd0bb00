"""The reach probe's allow-list stays true without running the probe.

``probe.py`` (CI's ``reach`` job) fails when a function of ``src/repro`` is
reached by no workload, figure or example and is not listed in
``allowlist.py``, or is listed there and reached.  This checks the list
itself, in tier-1: every entry names
a function that exists, and gives one of the accepted reasons — a test file
that calls it (which must exist), an abstract or protocol seam, a benchmark
trace hook, the roadmap item that will call it, or a named program caller.
"""

from __future__ import annotations

import re

from allowlist import ALLOWED
from probe import REPO, inventory

REASON = re.compile(
    r"test reference: (?P<tests>tests/\S+\.py(, tests/\S+\.py)*)$"
    r"|abstract/protocol seam$|benchmark trace hook$|item 3: recovery$|item 14: .+"
    r"|caller: .+"
)


def test_every_entry_names_a_function_in_src():
    defined = {function.name for function in inventory()}
    assert sorted(set(ALLOWED) - defined) == []


def test_every_entry_gives_an_accepted_reason():
    for name, reason in ALLOWED.items():
        match = REASON.match(reason)
        assert match, f"{name}: {reason!r}"
        for test_file in (match["tests"] or "").split(", "):
            assert not test_file or (REPO / test_file).is_file(), f"{name}: {test_file}"
