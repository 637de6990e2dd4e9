"""Show the acceptance notes at the end of every run.

tests/test_acceptance.py prints one `ACCEPTANCE ...` line per criterion,
the trend suite's wall time among them. Pytest keeps a passing test's
output to itself, so the summary repeats those lines from each finished
test's captured stdout."""


def pytest_terminal_summary(terminalreporter):
    notes = [line
             for reports in terminalreporter.stats.values()
             for report in reports
             if getattr(report, "when", None) == "call"
             for line in report.capstdout.splitlines()
             if line.startswith("ACCEPTANCE ")]
    if notes:
        terminalreporter.write_sep("-", "acceptance notes")
        for line in notes:
            terminalreporter.write_line(line)
