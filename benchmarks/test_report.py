"""The report CLI prints every reproduced figure."""

from __future__ import annotations

from benchmarks import report


def test_bare_run_prints_the_figures(capsys):
    assert report.main() == 0
    out = capsys.readouterr().out
    for title in ("Fig. 1 ", "Fig. 11 ", "Appendix ", "P1/P2 "):
        assert title in out
    assert "no loss of information: True" in out
