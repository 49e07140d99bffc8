"""Regression guard: docs/robustness.md's fault-site list cannot drift.

The "Sites currently wired" paragraph is cross-checked against the
actual ``fault_point(...)`` call sites in ``src/`` in both directions:
a documented site with no hook is stale documentation, and a hook with
no documentation is an untestable failure surface nobody knows about.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DOCS = REPO / "docs" / "robustness.md"
SRC = REPO / "src"

# Literal first argument of a fault_point call.
_CALL = re.compile(r'fault_point\(\s*"([^"]+)"')


def documented_sites():
    text = DOCS.read_text()
    match = re.search(r"Sites currently wired:(.*?)\n\n", text, re.DOTALL)
    assert match, "docs/robustness.md lost its 'Sites currently wired' list"
    return sorted(set(re.findall(r"`([^`]+)`", match.group(1))))


def wired_sites():
    sites = set()
    for path in SRC.rglob("*.py"):
        # faults.py defines the hook; its docstring examples are not wiring.
        if path.name == "faults.py" and path.parent.name == "resilience":
            continue
        text = path.read_text()
        sites.update(_CALL.findall(text))
    return sorted(sites)


def test_site_lists_are_nonempty_and_sane():
    docs = documented_sites()
    wired = wired_sites()
    assert len(docs) >= 8
    assert len(wired) >= 8
    assert all(re.fullmatch(r"[a-z0-9._-]+", s) for s in docs)


@pytest.mark.parametrize("site", documented_sites())
def test_documented_site_is_wired_in_source(site):
    assert site in wired_sites(), (
        f"docs/robustness.md documents fault site {site!r} but no "
        f"fault_point({site!r}) call exists under src/"
    )


@pytest.mark.parametrize("site", wired_sites())
def test_wired_site_is_documented(site):
    assert site in documented_sites(), (
        f"fault_point({site!r}) is wired in src/ but missing from the "
        f"'Sites currently wired' list in docs/robustness.md"
    )


def test_every_site_counted_by_telemetry(registry):
    """A fault_point hit increments ``fault.site.<site>`` when profiling."""
    from repro.resilience.faults import fault_point

    for site in documented_sites():
        fault_point(site)
        assert registry.counter(f"fault.site.{site}") == 1
