"""The one verdict rule: :func:`repro.criteria.decide` combines the exact
search and the streaming monitor, for every caller.

The table crosses the four things the search can say (yes, no, a budget
trip, or nothing because the history is past its op cutoff) with the
four the monitor can (yes, no, ``?``, or no monitor at all)."""

import pytest

from repro.adts import WindowStream
from repro.core import History
from repro.criteria import SearchBudgetExceeded, decide
from repro.criteria import verdict as verdict_module
from repro.criteria.base import CRITERIA, CheckResult
from repro.criteria.streaming_monitor import MonitorVerdict, MonitorViolation

W1 = WindowStream(1)
#: Fig. 3-style: each process reads the other's write; CC but not CCv
HISTORY = History.from_processes(
    [[W1.write(1), W1.read(2)], [W1.write(2), W1.read(1)]]
)
VIOLATION = MonitorViolation("CyclicCF", ("CCV",), 3, ((0, 1), (1, 1)))
MONITOR = {
    "yes": MonitorVerdict("CCV", True, reason="no bad pattern"),
    "no": MonitorVerdict("CCV", False, violation=VIOLATION, reason="cycle"),
    "?": MonitorVerdict("CCV", None, reason="non-differentiated history"),
    "absent": None,
}
BAD = "bad-pattern:CyclicCF"
#: what the search left open, the monitor decides; a conclusive clash fails
SILENT = {
    "yes": (True, []),
    "no": (False, [BAD]),
    "?": (None, []),
    "absent": (None, []),
}
TABLE = {
    "yes": {
        "yes": (True, []),
        "no": (False, [BAD, "monitor-disagreement"]),
        "?": (True, []),
        "absent": (True, []),
    },
    "no": {
        "yes": (False, ["criterion", "monitor-disagreement"]),
        "no": (False, ["criterion", BAD]),
        "?": (False, ["criterion"]),
        "absent": (False, ["criterion"]),
    },
    "budget": SILENT,
    "beyond": SILENT,
}
CASES = [(s, m) for s in TABLE for m in MONITOR]


@pytest.fixture
def search(monkeypatch):
    """Stand the CCV checker in for the search; returns its call log."""
    calls = []

    def install(outcome):
        def checker(history, adt, max_nodes=200_000):
            calls.append(max_nodes)
            if outcome == "budget":
                raise SearchBudgetExceeded("explored more than 1 family")
            return CheckResult("CCV", outcome == "yes", reason="searched")

        monkeypatch.setitem(CRITERIA, "CCV", checker)
        if outcome == "beyond":
            monkeypatch.setattr(
                verdict_module, "SEARCH_MAX_OPS", len(HISTORY) - 1
            )
        return calls

    return install


@pytest.mark.parametrize(
    "searched,monitored", CASES, ids=[f"{s}-{m}" for s, m in CASES]
)
def test_the_rule(search, searched, monitored):
    calls = search(searched)
    verdict = decide(HISTORY, W1, "ccv", monitor=MONITOR[monitored])
    ok, kinds = TABLE[searched][monitored]
    assert verdict.criterion == "CCV"
    assert verdict.ok is ok
    assert [kind for kind, _ in verdict.failures] == kinds
    assert len(calls) == (0 if searched == "beyond" else 1)
    assert (verdict.result is not None) == (searched in ("yes", "no"))
    if searched == "budget":
        assert verdict.note.startswith("search budget exceeded: explored")
    if searched == "beyond":
        assert verdict.note.startswith("history beyond enumeration-search")
    if verdict.result is None and MONITOR[monitored] and ok is not None:
        assert verdict.note.endswith("; decided by streaming monitor")
    if "monitor-disagreement" in kinds:
        _, detail = verdict.failures[-1]
        assert detail == {
            "criterion": "CCV",
            "search": searched == "yes",
            "monitor": monitored == "yes",
            "reason": MONITOR[monitored].reason,
        }
        assert verdict.note == "monitor/search disagreement on CCV"


def test_no_search_leaves_the_monitor_to_decide(search):
    calls = search("yes")
    verdict = decide(HISTORY, W1, "CCV", search=False, monitor=MONITOR["no"])
    assert calls == []
    assert verdict.ok is False
    assert verdict.reason == "search skipped; decided by streaming monitor"


def test_max_nodes_reaches_the_checkers_that_take_it(search):
    calls = search("no")
    decide(HISTORY, W1, "CCV", max_nodes=7)
    decide(HISTORY, W1, "CCV")
    assert calls == [7, 200_000]
    # SC takes no node budget: it is not passed one
    assert decide(HISTORY, W1, "SC", max_nodes=7).ok is False


def test_the_real_search_and_monitor_agree_on_fig3():
    from repro.criteria.streaming_monitor import replay_history

    monitored = replay_history(HISTORY, W1, criteria=("CC", "CCV"))
    for criterion, holds in (("CC", True), ("CCV", False)):
        verdict = decide(HISTORY, W1, criterion, monitor=monitored[criterion])
        assert verdict.ok is holds
        assert "monitor-disagreement" not in dict(verdict.failures)
