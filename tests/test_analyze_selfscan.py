"""The repo's own source must pass its static analyzer.

This is the test-suite mirror of the CI ``analyze`` job: the scan over
``src`` must be clean, and every pragma in it must say which rule it
silences and why.
"""

from pathlib import Path

from repro.analyze.core import read_pragmas
from repro.analyze.runner import analyze_paths, iter_python_files

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_src_scan_is_clean():
    result = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert result.findings == [], "analyzer findings:\n" + "\n".join(
        f"  {f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
    )


def test_src_pragmas_name_a_rule_and_a_reason():
    pragmas = [
        (path, p)
        for path in iter_python_files([REPO_ROOT / "src"])
        for p in read_pragmas(path.read_text()).values()
    ]
    assert pragmas, "the tree's deliberate exceptions carry pragmas"
    for path, p in pragmas:
        assert p.codes and p.reason, f"{path}:{p.line}"


def test_scan_covers_the_whole_package():
    result = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert result.files_scanned >= 100
