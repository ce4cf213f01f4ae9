"""CLI tests (direct invocation, captured output)."""

import json

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_all_figures_registered(self):
        assert set(FIGURES) == {
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "memory",
        }

    def test_figure_modules_importable(self):
        import importlib

        for module in FIGURES.values():
            importlib.import_module(f"repro.experiments.{module}")


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ICPP 2018" in out
        assert "10,649,600" in out

    def test_cascade(self, capsys):
        assert main(["cascade", "--cells", "6", "--steps", "40"]) == 0
        out = capsys.readouterr().out
        assert "Frenkel pairs" in out

    def test_coupled(self, capsys):
        assert main(["coupled", "--cells", "6", "--events", "30"]) == 0
        out = capsys.readouterr().out
        assert "after MD" in out
        assert "after KMC" in out

    def test_figure_memory(self, capsys):
        assert main(["figure", "memory"]) == 0
        out = capsys.readouterr().out
        assert "lattice_list" in out

    def test_figure_fig10(self, capsys):
        assert main(["figure", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out

    def test_coupled_profile_and_trace(self, capsys, tmp_path):
        """The acceptance run: profile + trace of a small coupled pipeline."""
        trace = tmp_path / "t.json"
        argv = [
            "coupled",
            "--cells", "5",
            "--events", "20",
            "--md-steps", "40",
            "--kmc-ranks", "1",
            "--kmc-cycles", "5",
            "--profile",
            "--trace", str(trace),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "phase tree" in out
        # All five pipeline stages appear in the printed tree.
        for stage in ("setup", "cascade", "map_damage", "kmc", "analysis"):
            assert f"coupled.{stage}" in out
        data = json.loads(trace.read_text())
        events = data["traceEvents"]
        cats = {e.get("cat") for e in events if e.get("cat")}
        # At least one event from every layer the run executes.
        assert {"coupled", "md", "kmc", "runtime"} <= cats
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)

    def test_coupled_profile_runs_the_serial_engine(self, capsys):
        # Profiling observes the run it is given: without --kmc-ranks
        # the KMC stage stays on the serial engine.
        argv = [
            "coupled",
            "--cells", "5",
            "--events", "20",
            "--md-steps", "40",
            "--profile",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "kmc.event_selection" in out  # serial engine phases
        assert "runtime." not in out
        assert "sunway" not in out

    def test_cascade_profile(self, capsys):
        argv = ["cascade", "--cells", "6", "--steps", "30", "--profile"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "md.step" in out
        assert "md.force" in out

    def test_trace_without_profile_writes_file_only(self, capsys, tmp_path):
        trace = tmp_path / "cascade.json"
        argv = [
            "cascade",
            "--cells", "6",
            "--steps", "30",
            "--trace", str(trace),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "phase tree" not in out  # report needs --profile
        assert "trace written" in out
        assert json.loads(trace.read_text())["traceEvents"]

    def test_unwritable_trace_path_fails_cleanly(self, capsys):
        argv = [
            "cascade",
            "--cells", "6",
            "--steps", "30",
            "--trace", "/nonexistent-dir/t.json",
        ]
        with pytest.raises(SystemExit):
            main(argv)
        assert "cannot write trace" in capsys.readouterr().err

    def test_observation_disabled_after_run(self):
        from repro import observe as obs

        assert main(["cascade", "--cells", "6", "--steps", "30",
                     "--profile"]) == 0
        assert not obs.enabled()

    def test_kmc_schemes(self, capsys):
        assert (
            main(
                [
                    "kmc-schemes",
                    "--cells",
                    "8",
                    "--cycles",
                    "3",
                    "--vacancies",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "identical trajectories" in out


class TestFaultFlags:
    def test_coupled_with_faults_and_recovery(self, capsys, tmp_path):
        """CI's fault-injection smoke: crash, recover, report, succeed."""
        rc = main(
            [
                "coupled",
                "--cells", "8",
                "--seed", "3",
                "--kmc-ranks", "2",
                "--kmc-cycles", "6",
                "--md-steps", "60",
                "--faults", "crash:rank=1,cycle=3",
                "--checkpoint-every", "2",
                "--checkpoint-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault plan: crash:rank=1,cycle=3" in out
        # One observable outcome per crash, whatever the backend.
        assert [
            line for line in out.splitlines()
            if "recoveries" in line or "migration" in line
        ] == ["faults injected: 1 (1 crashes, 0 delays); recoveries: 1"]
        assert (tmp_path / "kmc_checkpoint.npz").exists()

    def test_bad_fault_plan_exits_2(self, capsys):
        # The ScenarioSpec's SpecError is a usage error: SystemExit(2).
        for plan, named in [("explode:rank=0,cycle=1", "explode"),
                            ("dup:rank=0,nth=1", "'dup'"),
                            ("crash:rank=abc,cycle=1", "rank=abc"),
                            ("delay:rank=0,nth=1,seconds=inf", "seconds"),
                            ("crash:rank=0,cycle=3", "serial engine")]:
            with pytest.raises(SystemExit) as exc_info:
                main(["coupled", "--faults", plan])
            err = capsys.readouterr().err
            assert exc_info.value.code == 2
            assert "bad faults plan" in err
            assert named in err
            assert "usage:" in err

    def test_timeout_is_one_error_line(self, capsys, monkeypatch):
        # A watchdog (or world) timeout would recur on a retry: the run
        # stops with the site it names, exit 1, no traceback.
        from repro.core.coupling import CoupledSimulation
        from repro.runtime.transport import WatchdogTimeout

        site = ("watchdog: rank 1 recv (source 0, tag 3) did not complete "
                "before the deadline")

        def hang(self):
            raise WatchdogTimeout(site)

        monkeypatch.setattr(CoupledSimulation, "run", hang)
        rc = main(["coupled", "--cells", "8", "--kmc-ranks", "2",
                   "--watchdog", "2", "--checkpoint-every", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [f"error: {site}"]

    def test_protocol_error_is_one_error_line(self, capsys, monkeypatch):
        # Ranks that break the protocol would break it again on a retry.
        from repro.core.coupling import CoupledSimulation
        from repro.runtime.simmpi import ProtocolError

        verdict = "unreceived messages: rank 0 -> rank 1 tag 31337 x1"

        def leak(self):
            raise ProtocolError(verdict)

        monkeypatch.setattr(CoupledSimulation, "run", leak)
        rc = main(["coupled", "--cells", "8", "--kmc-ranks", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [f"error: {verdict}"]

    def test_kmc_schemes_protocol_error_is_one_error_line(
        self, capsys, monkeypatch
    ):
        from repro.experiments._kmc_comm import SchemeComparison
        from repro.runtime.simmpi import ProtocolError

        verdict = "collectives diverge: rank 0 barrier, rank 1 allgather"

        def diverge(self, cycles):
            raise ProtocolError(verdict)

        monkeypatch.setattr(SchemeComparison, "run", diverge)
        rc = main(["kmc-schemes", "--cycles", "1", "--vacancies", "4"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [f"error: {verdict}"]

    def test_watchdog_flag_accepted(self, capsys):
        rc = main(
            [
                "coupled",
                "--cells", "6",
                "--events", "30",
                "--kmc-ranks", "1",
                "--watchdog", "30",
            ]
        )
        assert rc == 0
        assert "after KMC" in capsys.readouterr().out


class TestValidationExitCodes:
    """Every usage error exits 2 via argparse, on every subcommand."""

    def test_trajectory_every_requires_trajectory(self, capsys):
        # Every value, the default's 1 included, needs a store to record.
        for every in ("1", "2"):
            with pytest.raises(SystemExit) as exc_info:
                main(["coupled", "--cells", "6", "--trajectory-every", every])
            err = capsys.readouterr().err
            assert exc_info.value.code == 2
            assert "--trajectory-every requires --trajectory" in err
            assert "usage:" in err

    def test_coupled_bad_spec_exits_2(self, capsys):
        # Spec-level validation (cells floor, finite floats) also routes
        # to exit 2, naming the field, before anything runs.
        for flags, named in [(["--cells", "6", "--temperature", "-10"],
                              "temperature"),
                             (["--cells", "4"], "cells must be >= 5"),
                             (["--cells", "2"], "cells"),
                             # argparse's float() accepts "nan".
                             (["--cells", "5", "--temperature", "nan"],
                              "temperature must be finite"),
                             # No --kmc-ranks: the serial engine runs no
                             # World for a watchdog to bound.
                             (["--cells", "6", "--events", "30",
                               "--watchdog", "30"],
                              "watchdog bounds the parallel KMC"),
                             # A spline table needs five knots: 3
                             # segments ended in a ValueError traceback.
                             (["--cells", "5", "--table-points", "3"],
                              "table_points must be >= 4"),
                             # The spec, not a choices= list, holds the
                             # allowed names.
                             (["--cells", "5", "--backend", "gpu"],
                              "unknown backend 'gpu'"),
                             (["--cells", "5", "--kmc-scheme", "telepathy"],
                              "unknown kmc_scheme 'telepathy'")]:
            with pytest.raises(SystemExit) as exc_info:
                main(["coupled", *flags])
            out, err = capsys.readouterr()
            assert exc_info.value.code == 2
            assert named in err
            assert "usage:" in err
            assert out == ""

    @pytest.mark.parametrize("flags", [
        ["--trajectory"], ["--checkpoint-every", "2", "--checkpoint-dir"],
    ])
    def test_output_path_that_is_a_file_exits_2(self, flags, capsys,
                                                tmp_path):
        # It used to fail only after the MD stage, with a StoreError or
        # FileExistsError traceback.
        path = tmp_path / "F"
        path.write_text("not a directory")
        with pytest.raises(SystemExit) as exc_info:
            main(["coupled", "--cells", "5", *flags, str(path)])
        out, err = capsys.readouterr()
        assert exc_info.value.code == 2
        assert f"{flags[-1]} {path}: exists and is not a directory" in err
        assert out == ""

    def test_oversized_watchdog_exits_2(self, capsys):
        # Beyond threading.TIMEOUT_MAX: a usage error, not an
        # OverflowError from the first starved wait of the KMC world.
        with pytest.raises(SystemExit) as exc_info:
            main(["coupled", "--cells", "8", "--kmc-ranks", "2",
                  "--watchdog", "1e10"])
        out, err = capsys.readouterr()
        assert exc_info.value.code == 2
        assert "watchdog must be in (0, " in err
        assert "usage:" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["coupled"])
    def test_infeasible_decomposition_exits_2(self, command, capsys):
        # Rejected when the spec is built: before the MD stage runs, not
        # from inside rank 7 of the KMC world.
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--cells", "6", "--kmc-ranks", "8"])
        out, err = capsys.readouterr()
        assert exc_info.value.code == 2
        assert "--cells" in err and "--kmc-ranks" in err
        assert "6x6x6" in err and "8 ranks" in err
        assert "coupled MD-KMC over" not in out

    @pytest.mark.parametrize("argv,named", [
        (["cascade", "--cells", "3"], "box"),
        (["cascade", "--steps", "0"], "md_steps"),
        (["kmc-schemes", "--cells", "4", "--ranks", "8"], "4x4x4"),
        (["kmc-schemes", "--vacancies", "99999"], "99999 vacancies"),
        (["kmc-schemes", "--workers", "0"], "workers"),
        # The engine, not a choices= list, holds the allowed names.
        (["kmc-schemes", "--backend", "OVERDECOMPOSED "],
         "unknown simmpi backend 'OVERDECOMPOSED '"),
    ])
    def test_unbuildable_run_exits_2(self, argv, named, capsys):
        # A lattice/engine/occupancy the flags cannot build is a usage
        # error of that subcommand, not a traceback.
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        out, err = capsys.readouterr()
        assert exc_info.value.code == 2
        assert named in err
        assert f"usage: repro {argv[0]}" in err
        assert out == ""

    def test_kernels_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["coupled", "--kernels", "numpy"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --kernels" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["submit", "serve", "status", "result"])
    def test_service_subcommands_are_gone(self, command, capsys):
        # run_service is the service's one entry point.
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--root", "runs"])
        assert exc_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
