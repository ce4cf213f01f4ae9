"""The CLI and the service run one spec path: ``coupled`` builds the
:class:`ScenarioSpec` a :func:`run_service` batch runs."""

import json

from repro.cli import main
from repro.service import ResultCache, ScenarioSpec, run_service


class TestFlow:
    def test_coupled_runs_through_the_spec_path(self, capsys):
        # The coupled CLI builds a ScenarioSpec; spec-level validation
        # reaches it too.
        assert main(["coupled", "--cells", "6", "--events", "30"]) == 0
        assert "after KMC" in capsys.readouterr().out

    def test_coupled_flags_select_the_served_scenario(self, capsys, tmp_path):
        # The identity flags (--pka, --table-points, --kmc-scheme, ...)
        # select inline the scenario the service runs from its spec.
        flags = [
            "--cells", "8", "--md-steps", "30", "--pka", "200",
            "--table-points", "500", "--kmc-scheme", "traditional",
            "--kmc-ranks", "8", "--kmc-cycles", "40",
        ]
        assert main(["coupled", *flags]) == 0
        inline = capsys.readouterr().out
        spec = ScenarioSpec(
            cells=8, md_steps=30, pka_energy=200.0, table_points=500,
            kmc_scheme="traditional", kmc_nranks=8, kmc_max_cycles=40,
        )
        (record,) = run_service(tmp_path, [spec], workers=1)
        assert record.state == "done"
        entry = ResultCache(tmp_path).lookup(spec.key())
        served = json.loads((entry / "result.json").read_text())
        assert served["kmc_events"] > 0
        assert f"after MD : {served['vacancies_after_md']} vacancies" in inline
        assert f"after KMC: {served['vacancies_after_kmc']} vacancies" in inline
        assert f"{served['kmc_events']} events over" in inline
