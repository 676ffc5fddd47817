"""Shared pytest wiring: surfaces acceptance verdicts in the run summary,
and records the MUD steps of a detector run.

Acceptance tests register their PASS/FAIL lines here; the terminal summary
hook replays them after the run, where output capture is suspended, so the
verdicts appear even when every test passes.
"""

import numpy as np

from corrcdma import detectors

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)


def record_steps(monkeypatch):
    """Spy on detectors._mud_step for the rest of the test. Returns the
    list to which each step appends (Q_min, Q_max, A_min, A_max,
    max|soft|): the soft power Q and precision A range over the rows the
    step updated (the values it returns), max|soft| over the whole (L B, K)
    block of soft values as the step leaves it. A lone realization steps
    once per outer iteration, so its runs append one tuple per iteration;
    clear the list between runs."""
    real_step, records = detectors._mud_step, []

    def step(rows, ends, corrs, soft, *rest):
        q_pow, precision, diverged = real_step(rows, ends, corrs, soft, *rest)
        records.append((float(q_pow.min()), float(q_pow.max()),
                        float(precision.min()), float(precision.max()),
                        float(np.abs(soft).max())))
        return q_pow, precision, diverged

    monkeypatch.setattr(detectors, "_mud_step", step)
    return records
