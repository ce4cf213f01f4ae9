"""The service CLI surface: submit -> serve --drain -> status -> result."""

import json

import pytest

from repro.cli import main

SPEC_FLAGS = [
    "--cells", "5",
    "--md-steps", "30",
    "--events", "25",
    "--table-points", "500",
    "--trajectory-every", "1",
]


def _submit(root, *extra):
    return main(["submit", "--root", str(root), *SPEC_FLAGS, *extra])


class TestFlow:
    def test_submit_serve_status_result(self, capsys, tmp_path):
        # Two identical specs and one seed-variant: the drained pool
        # must execute twice and dedupe once.
        assert _submit(tmp_path, "--seed", "7") == 0
        assert _submit(tmp_path, "--seed", "7") == 0
        assert _submit(tmp_path, "--seed", "8") == 0
        out = capsys.readouterr().out
        assert "submitted job-000001" in out
        assert "submitted job-000003" in out

        assert main(
            ["serve", "--root", str(tmp_path), "--workers", "2", "--drain"]
        ) == 0
        out = capsys.readouterr().out
        assert "queue drained" in out
        assert "-> executing" in out
        assert "attached to in-flight" in out or "cache hit" in out

        assert main(["status", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "jobs: 3 total, 3 done" in out
        assert "executions: 2, deduplicated: 1, retries: 0" in out
        summary_line = next(
            line for line in out.splitlines() if line.startswith("summary:")
        )
        stats = json.loads(summary_line.split("summary:", 1)[1])
        assert stats["states"]["done"] == 3

        assert main(
            ["result", "--root", str(tmp_path), "job-000002"]
        ) == 0
        out = capsys.readouterr().out
        assert "job-000002 key=" in out
        assert "* result.json" in out
        assert "* vacancies_after_kmc.npy" in out
        assert "trajectory:" in out

    def test_status_single_job_shows_snapshot(self, capsys, tmp_path):
        assert _submit(tmp_path) == 0
        assert main(
            ["serve", "--root", str(tmp_path), "--workers", "1", "--drain"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["status", "--root", str(tmp_path), "--job", "job-000001"]
        ) == 0
        out = capsys.readouterr().out
        assert "job-000001  done" in out
        assert "stage: done" in out

    def test_result_json_mode(self, capsys, tmp_path):
        assert _submit(tmp_path) == 0
        assert main(
            ["serve", "--root", str(tmp_path), "--workers", "1", "--drain"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["result", "--root", str(tmp_path), "job-000001", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-service-result-v1"
        assert payload["vacancies_after_kmc"] >= 0

    def test_result_of_unfinished_job_exits_1(self, capsys, tmp_path):
        assert _submit(tmp_path) == 0
        capsys.readouterr()
        assert main(
            ["result", "--root", str(tmp_path), "job-000001"]
        ) == 1
        assert "pending" in capsys.readouterr().err

    def test_serve_validates_workers(self, capsys, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            main(
                ["serve", "--root", str(tmp_path), "--workers", "0",
                 "--drain"]
            )

    def test_coupled_runs_through_the_spec_path(self, capsys):
        # The coupled CLI is a thin client of the same ScenarioSpec
        # construction as submit; spec-level validation reaches it too.
        assert main(["coupled", "--cells", "6", "--events", "30"]) == 0
        assert "after KMC" in capsys.readouterr().out

    def test_coupled_takes_every_scenario_flag_submit_takes(self, capsys, tmp_path):
        # One flag table, one spec builder: the identity flags coupled
        # used to lack (--pka, --table-points, --kmc-scheme) select the
        # same scenario inline as through the queue.
        flags = [
            "--cells", "8", "--md-steps", "30", "--pka", "200",
            "--table-points", "500", "--kmc-scheme", "traditional",
            "--kmc-ranks", "8", "--kmc-cycles", "40",
        ]
        assert main(["coupled", *flags]) == 0
        inline = capsys.readouterr().out
        assert main(["submit", "--root", str(tmp_path), *flags]) == 0
        assert main(
            ["serve", "--root", str(tmp_path), "--workers", "1", "--drain"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["result", "--root", str(tmp_path), "job-000001", "--json"]
        ) == 0
        served = json.loads(capsys.readouterr().out)
        assert served["kmc_events"] > 0
        assert f"after MD : {served['vacancies_after_md']} vacancies" in inline
        assert f"after KMC: {served['vacancies_after_kmc']} vacancies" in inline
        assert f"{served['kmc_events']} events over" in inline
