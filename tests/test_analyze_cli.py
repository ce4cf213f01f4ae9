"""CLI contract tests: exit codes, JSON schema, the pragma contract."""

import json
import textwrap

import pytest

from repro.analyze.cli import main
from repro.analyze.core import all_rules
from repro.analyze.runner import analyze_paths

BAD_KMC = textwrap.dedent(
    """\
    import numpy as np

    def hop():
        return np.random.rand()
    """
)

CLEAN = "def f(x):\n    return x + 1\n"


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A scan root with one dirty physics module and one clean module."""
    pkg = tmp_path / "src" / "repro" / "kmc"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(BAD_KMC)
    (pkg / "ok.py").write_text(CLEAN)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_scan_exits_zero(self, tree, capsys):
        (tree / "src/repro/kmc/bad.py").write_text(CLEAN)
        assert main(["src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tree, capsys):
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "bad.py" in out

    def test_unknown_rule_exits_two(self, tree, capsys):
        assert main(["--explain", "REP999"]) == 2

    def test_missing_path_exits_two(self, tree, capsys):
        # A typo in a scan path must not turn the gate green.
        assert main(["srcx"]) == 2
        assert "srcx" in capsys.readouterr().err
        (tree / "notes.txt").write_text("not python\n")
        assert main(["src", "notes.txt"]) == 2
        assert "notes.txt" in capsys.readouterr().err

    def test_pragma_without_reason_exits_one(self, tree, capsys):
        # An exception with no reason fails the gate, though it silences
        # the finding it names.
        (tree / "src/repro/kmc/bad.py").write_text(
            BAD_KMC.replace(
                "return np.random.rand()",
                "return np.random.rand()  # repro: noqa(REP001)",
            )
        )
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "REP000 pragma gives no reason" in out
        assert "1 noqa-suppressed" in out

    def test_syntax_error_is_a_finding(self, tree, capsys):
        (tree / "src/repro/kmc/broken.py").write_text("def f(:\n")
        assert main(["src"]) == 1
        assert "REP000" in capsys.readouterr().out


class TestReporters:
    def test_json_schema(self, tree, capsys):
        assert main(["src", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 2
        assert set(doc) == {
            "version", "files_scanned", "findings", "suppressed", "counts"
        }
        assert doc["files_scanned"] == 2
        assert doc["counts"] == {"REP001": 1}
        (finding,) = doc["findings"]
        assert finding["rule"] == "REP001"
        assert finding["path"] == "src/repro/kmc/bad.py"
        assert finding["line"] == 4
        assert finding["snippet"] == "return np.random.rand()"

    def test_explain_and_list_rules(self, tree, capsys):
        assert main(["--explain", "rep001"]) == 0
        assert "sector_rng" in capsys.readouterr().out
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        codes = [line.split()[0] for line in out.splitlines()]
        assert codes == ["REP001", "REP002", "REP003", "REP006"]


class TestSuppression:
    def test_inline_noqa(self, tree, capsys):
        (tree / "src/repro/kmc/bad.py").write_text(
            BAD_KMC.replace(
                "return np.random.rand()",
                "return np.random.rand()  # repro: noqa(REP001) fixture",
            )
        )
        assert main(["src"]) == 0
        assert "1 noqa-suppressed" in capsys.readouterr().out

    def test_blanket_noqa_and_other_code(self, tree, capsys):
        # noqa for a *different* rule does not suppress, and is stale
        (tree / "src/repro/kmc/bad.py").write_text(
            BAD_KMC.replace(
                "return np.random.rand()",
                "return np.random.rand()  # repro: noqa(REP003) wrong code",
            )
        )
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "suppresses no REP003 finding" in out
        # a blanket pragma silences nothing and is itself a finding
        (tree / "src/repro/kmc/bad.py").write_text(
            BAD_KMC.replace(
                "return np.random.rand()",
                "return np.random.rand()  # repro: noqa",
            )
        )
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "REP000 pragma names no rule" in out

    def test_pragma_in_string_literal_does_not_suppress(self, tree, capsys):
        # Only a comment is a pragma; text in a string literal is data.
        (tree / "src/repro/kmc/bad.py").write_text(
            BAD_KMC.replace(
                "return np.random.rand()",
                'return np.random.rand(), "# repro: noqa(REP001) in a string"',
            )
        )
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "noqa-suppressed" not in out


    def test_fresh_pragma_cannot_silently_pass(self, tree, capsys):
        # The scan passes only once the pragma names the rule and says why.
        for pragma, code in [
            ("# repro: noqa", 1),
            ("# repro: noqa seeded fixture", 1),
            ("# repro: noqa(REP001)", 1),
            ("# repro: noqa(REP001) seeded fixture", 0),
        ]:
            (tree / "src/repro/kmc/bad.py").write_text(
                BAD_KMC.replace(
                    "return np.random.rand()",
                    f"return np.random.rand()  {pragma}",
                )
            )
            assert main(["src"]) == code, pragma
            capsys.readouterr()

    def test_stale_pragma_reported(self, tree, capsys):
        (tree / "src/repro/kmc/fixed.py").write_text(
            "x = 1  # repro: noqa(REP006) was fixed long ago\n"
        )
        (tree / "src/repro/kmc/bad.py").write_text(CLEAN)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "fixed.py:1" in out and "suppresses no REP006 finding" in out

    def test_pragma_of_a_retired_rule_names_an_unknown_rule(self, tree, capsys):
        # REP005 is ruff's BLE001 now: its old pragma is stale as unknown.
        (tree / "src/repro/kmc/fixed.py").write_text(
            "x = 1  # repro: noqa(REP005) boundary handler\n"
        )
        (tree / "src/repro/kmc/bad.py").write_text(CLEAN)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "REP000 pragma names unknown rule REP005" in out


class TestPragmaContract:
    """Each broken pragma is a REP000 finding that no pragma silences."""

    def scan_with(self, tree, line):
        (tree / "src/repro/kmc/bad.py").write_text(
            BAD_KMC.replace("return np.random.rand()", line)
        )
        return analyze_paths(["src"])

    def test_blanket_pragma_is_a_finding(self, tree):
        result = self.scan_with(tree, "return np.random.rand()  # repro: noqa why")
        rep001, rep000 = result.findings  # the pragma sits right of the call
        assert (rep001.rule, rep000.rule) == ("REP001", "REP000")
        assert "names no rule" in rep000.message

    def test_pragma_without_reason_is_a_finding(self, tree):
        result = self.scan_with(
            tree, "return np.random.rand()  # repro: noqa(REP001)"
        )
        (finding,) = result.findings
        assert finding.rule == "REP000" and "no reason" in finding.message
        assert [f.rule for f in result.suppressed] == ["REP001"]

    def test_stale_pragma_is_a_finding(self, tree):
        result = self.scan_with(
            tree, "return 0.5  # repro: noqa(REP001) the draw was removed"
        )
        (finding,) = result.findings
        assert finding.rule == "REP000"
        assert finding.line == 4
        assert "suppresses no REP001 finding" in finding.message

    def test_pragma_of_a_rule_that_did_not_run_is_not_stale(self, tree):
        (tree / "src/repro/kmc/bad.py").write_text(
            "x = 1  # repro: noqa(REP001) checked by the full scan\n"
        )
        only_rep006 = [all_rules()["REP006"]()]
        assert analyze_paths(["src"], rules=only_rep006).findings == []
        assert [f.rule for f in analyze_paths(["src"]).findings] == ["REP000"]

    def test_rep000_cannot_be_silenced(self, tree):
        result = self.scan_with(
            tree, "return np.random.rand()  # repro: noqa(REP000, REP001) try"
        )
        (finding,) = result.findings
        assert finding.rule == "REP000"
        assert "unknown rule REP000" in finding.message


class TestRuleSubset:
    def test_rules_argument_restricts_the_scan(self, tree):
        # The tree has a REP001 finding; scanning only REP006 is clean.
        rules = all_rules()
        assert analyze_paths(["src"], rules=[rules["REP006"]()]).findings == []
        found = analyze_paths(["src"], rules=[rules["REP001"](), rules["REP006"]()])
        assert [f.rule for f in found.findings] == ["REP001"]


class TestRunner:
    def test_root_anchors_relative_paths(self, tree):
        result = analyze_paths([tree / "src"], root=tree)
        assert [f.path for f in result.findings] == ["src/repro/kmc/bad.py"]

    def test_single_file_and_dedup(self, tree):
        result = analyze_paths(
            [tree / "src/repro/kmc/bad.py", tree / "src/repro/kmc"], root=tree
        )
        assert len(result.findings) == 1
