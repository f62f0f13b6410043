"""The full-report generator."""

import pytest

import repro.experiments
from repro.experiments import report


@pytest.fixture(scope="module")
def fast_report():
    return report.generate(fast=True)


class TestReportGenerator:
    def test_all_sections_present(self, fast_report):
        for title in ("Table 1", "Figure 3", "Figure 8", "Figure 11",
                      "Extension — online migration",
                      "Extension — CPU co-tenancy"):
            assert title in fast_report

    def test_sections_cover_every_experiment(self):
        modules = {module.__name__.rpartition(".")[2]
                   for module, _, _ in report._sections(fast=True)}
        assert modules == set(repro.experiments.__all__)

    def test_contains_rendered_exhibits(self, fast_report):
        assert "30C-70B" in fast_report            # fig 3 columns
        assert "BW ratio" in fast_report           # fig 1
        assert "ORACLE-10%" in fast_report         # fig 8
        assert "migrate-from-all-CO" in fast_report
        assert "tuned-speedup" in fast_report     # chiplet extension

    def test_markdown_structure(self, fast_report):
        assert fast_report.startswith("# Reproduction report")
        assert fast_report.count("```") % 2 == 0

    def test_cli_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = report.main(["--fast", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "Figure 3" in out.read_text()
