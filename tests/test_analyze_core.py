"""Framework-core coverage: import resolution, pragmas, statement extents."""

import ast
import textwrap

from repro.analyze.core import ImportMap, expand_statement_pragmas, read_pragmas
from repro.analyze.runner import analyze_paths


def import_map(source):
    return ImportMap(ast.parse(textwrap.dedent(source)))


def call_expr(source):
    return ast.parse(textwrap.dedent(source)).body[0].value.func


class TestImportMapResolveCall:
    def test_plain_import_resolves_to_root(self):
        m = import_map("import numpy\n")
        assert m.resolve_call(call_expr("numpy.random.rand()")) == (
            "numpy.random.rand"
        )

    def test_aliased_import_keeps_full_dotted_path(self):
        m = import_map("import numpy.random as nr\n")
        assert m.resolve_call(call_expr("nr.rand()")) == "numpy.random.rand"

    def test_unaliased_dotted_import_binds_the_root_name(self):
        # ``import os.path`` binds ``os``; attribute chains extend it.
        m = import_map("import os.path\n")
        assert m.resolve_call(call_expr("os.path.join()")) == "os.path.join"

    def test_from_import_as_resolves_alias(self):
        m = import_map("from numpy import random as r\n")
        assert m.resolve_call(call_expr("r.rand()")) == "numpy.random.rand"

    def test_from_import_name_resolves_directly(self):
        m = import_map("from time import perf_counter\n")
        assert m.resolve_call(call_expr("perf_counter()")) == (
            "time.perf_counter"
        )

    def test_deep_attribute_chain(self):
        m = import_map("import numpy as np\n")
        assert m.resolve_call(call_expr("np.add.at(x, i, v)")) == "numpy.add.at"

    def test_unknown_roots_and_non_name_bases_are_none(self):
        m = import_map("import numpy as np\n")
        assert m.resolve_call(call_expr("local_fn()")) is None
        assert m.resolve_call(call_expr("obj.method()")) is None
        assert m.resolve_call(call_expr("get()().chained()")) is None

    def test_star_and_relative_imports_are_skipped(self):
        m = import_map("from numpy import *\nfrom . import helpers\n")
        assert m.resolve_call(call_expr("rand()")) is None
        assert m.resolve_call(call_expr("helpers.work()")) is None


def codes_on(covering, line):
    """Every rule code the pragmas covering ``line`` name."""
    return {code for p in covering.get(line, ()) for code in p.codes}


def covering(source):
    return expand_statement_pragmas(ast.parse(source), read_pragmas(source))


class TestSuppressedCodes:
    def test_blanket_noqa_is_empty_frozenset(self):
        out = read_pragmas("x = 1  # repro: noqa\n")
        assert out[1].codes == frozenset()

    def test_scoped_codes_parse_with_spaces_and_case(self):
        out = read_pragmas("x = 1  # repro: noqa(rep001, REP003 ) why\n")
        assert out[1].codes == frozenset({"REP001", "REP003"})

    def test_justification_text_after_pragma_is_accepted(self):
        out = read_pragmas(
            "t = time.time()  # repro: noqa(REP001) wall time is only logged\n"
        )
        assert out[1].codes == frozenset({"REP001"})
        assert out[1].reason == "wall time is only logged"

    def test_unmarked_lines_have_no_entry(self):
        out = read_pragmas("x = 1\ny = 2  # repro: noqa(REP001)\n")
        assert 1 not in out and 2 in out
        assert out[2].reason == ""

    def test_only_a_named_code_on_the_line_suppresses(self, tmp_path):
        bad = "import numpy as np\nx = np.random.rand()"
        cases = [
            ("  # repro: noqa(REP001) seeded", ["REP001"], []),
            ("  # repro: noqa(rep003, REP001) seeded", ["REP001"], ["REP000"]),
            ("  # repro: noqa(REP002) seeded", [], ["REP000", "REP001"]),
            ("  # repro: noqa seeded", [], ["REP000", "REP001"]),
            ("\ny = 1  # repro: noqa(REP001) seeded", [], ["REP000", "REP001"]),
        ]
        pkg = tmp_path / "src" / "repro" / "kmc"
        pkg.mkdir(parents=True)
        for pragma, suppressed, found in cases:
            (pkg / "bad.py").write_text(bad + pragma + "\n")
            result = analyze_paths([tmp_path / "src"], root=tmp_path)
            assert [f.rule for f in result.suppressed] == suppressed, pragma
            assert sorted(f.rule for f in result.findings) == found, pragma

    def test_pragma_inside_a_string_is_not_a_pragma(self):
        source = 'x = "# repro: noqa(REP001) data"\ny = """\n# repro: noqa\n"""\n'
        assert read_pragmas(source) == {}


class TestStatementExtentPragmas:
    def test_pragma_covers_later_lines_of_multiline_statement(self):
        source = textwrap.dedent("""\
        import numpy as np

        x = compute(  # repro: noqa(REP001) seeded upstream
            np.random.rand(),
            3,
        )
        """)
        # The call argument on line 4 anchors findings there; the pragma
        # on the statement head (line 3) must reach it.
        assert codes_on(covering(source), 4) == {"REP001"}

    def test_pragma_on_def_line_does_not_blanket_the_body(self):
        source = textwrap.dedent("""\
        def f():  # repro: noqa(REP001) about the signature only
            return np.random.rand()
        """)
        assert codes_on(covering(source), 2) == set()

    def test_inner_line_codes_are_unioned_not_replaced(self):
        source = textwrap.dedent("""\
        x = compute(  # repro: noqa(REP001) head reason
            risky(),  # repro: noqa(REP003) inner reason
        )
        """)
        assert codes_on(covering(source), 2) == {"REP001", "REP003"}

    def test_end_to_end_through_the_runner(self, tmp_path):
        from repro.analyze.runner import analyze_paths

        src = tmp_path / "src" / "repro" / "kmc"
        src.mkdir(parents=True)
        (src / "mod.py").write_text(
            textwrap.dedent("""\
            import numpy as np

            x = sum(  # repro: noqa(REP001) regression: multi-line extent
                [np.random.rand()]
            )
            """)
        )
        result = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert result.findings == []  # silenced, and the pragma is used
        assert any(f.rule == "REP001" for f in result.suppressed)
