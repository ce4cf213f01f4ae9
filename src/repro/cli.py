"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library, machine-model, and experiment inventory.
``coupled``
    Run the coupled MD-KMC pipeline at a chosen box size (its flags
    build the :class:`~repro.service.ScenarioSpec` a batch of
    :func:`~repro.service.run_service` runs).
``cascade``
    Run one MD cascade and report the damage inventory (the MD stage of
    the :class:`~repro.service.ScenarioSpec` its flags build).
``kmc-schemes``
    Compare the three parallel-KMC communication schemes.
``figure <id>``
    Regenerate a paper figure (``fig09`` .. ``fig17``, ``memory``).

All argument validation — including cross-flag checks and fault-plan
parsing — routes through ``argparse``, so every usage error exits with
status 2 and a ``usage:`` message on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

#: Figure id -> experiment module name.
FIGURES = {
    "fig09": "fig09_md_optimizations",
    "fig10": "fig10_md_strong_scaling",
    "fig11": "fig11_md_weak_scaling",
    "fig12": "fig12_kmc_comm_volume",
    "fig13": "fig13_kmc_comm_time",
    "fig14": "fig14_kmc_strong_scaling",
    "fig15": "fig15_kmc_weak_scaling",
    "fig16": "fig16_coupled_weak_scaling",
    "fig17": "fig17_vacancy_clustering",
    "memory": "memory_table",
}


def _add_observe_flags(parser) -> None:
    """The shared profiling/tracing options of the run commands."""
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the observed phase tree and counters after the run",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome-trace JSON (chrome://tracing / Perfetto)",
    )


def _add_backend_flags(parser) -> None:
    """How a parallel KMC world runs (``coupled``, ``kmc-schemes``)."""
    parser.add_argument(
        "--backend",
        help=(
            "execution backend for the parallel KMC ranks: 'thread' "
            "(default), 'process' (one OS process per rank, real "
            "multi-core parallelism), or 'overdecomposed' (R logical "
            "ranks cooperatively scheduled on --workers OS workers); "
            "results are bit-identical across all three"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="P",
        help=(
            "physical workers for the overdecomposed/rank-group "
            "backends (default: one per rank for 'process', the cpu "
            "count for 'overdecomposed')"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Coupled MD-KMC metal damage simulation "
            "(ICPP 2018 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and machine-model inventory")

    # Every flag naming a ScenarioSpec field stores under that field's
    # name and has no default: cmd_coupled builds the spec from the flags
    # given, so the spec alone holds the defaults and the allowed values.
    coupled = sub.add_parser("coupled", help="run the coupled MD-KMC pipeline")
    coupled.add_argument("--cells", type=int)
    coupled.add_argument("--events", type=int, dest="kmc_max_events",
                         metavar="N", help="KMC event budget (serial engine)")
    coupled.add_argument("--temperature", type=float)
    coupled.add_argument("--seed", type=int)
    coupled.add_argument("--md-steps", type=int,
                         help="MD cascade steps (default: cascade default)")
    coupled.add_argument("--pka", type=float, dest="pka_energy", metavar="EV",
                         help="PKA energy (default: cascade default)")
    coupled.add_argument("--table-points", type=int)
    coupled.add_argument("--recombination-radius", type=float, metavar="A")
    coupled.add_argument(
        "--kmc-ranks",
        type=int,
        dest="kmc_nranks",
        metavar="N",
        help=(
            "run the KMC stage on the parallel engine with N ranks "
            "(default: the serial engine)"
        ),
    )
    coupled.add_argument("--kmc-cycles", type=int, dest="kmc_max_cycles",
                         metavar="N",
                         help="parallel-KMC cycle budget (with --kmc-ranks)")
    coupled.add_argument("--kmc-scheme",
                         help="parallel-KMC communication scheme: "
                         "traditional, ondemand or onesided")
    coupled.add_argument(
        "--faults",
        metavar="PLAN",
        help=(
            "fault-injection plan for the KMC stage, e.g. "
            '"crash:rank=1,cycle=3; delay:rank=0,nth=2,seconds=0.01"; '
            "the run recovers "
            "from the last checkpoint and finishes bit-identically to a "
            "fault-free run (see repro.runtime.faults for the syntax)"
        ),
    )
    coupled.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help=(
            "write a resumable KMC checkpoint every N cycles (parallel) "
            "or N events (serial)"
        ),
    )
    _add_backend_flags(coupled)
    coupled.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory for checkpoints (default: a temporary directory "
            "removed when the KMC stage ends)"
        ),
    )
    coupled.add_argument(
        "--trajectory",
        metavar="PATH",
        default=None,
        help=(
            "record the KMC occupancy trajectory into a chunked on-disk "
            "store at PATH (a directory); frames stream to disk as the "
            "run progresses, so memory stays bounded, and the store "
            "survives crash/recovery cycles (see repro.io.store)"
        ),
    )
    coupled.add_argument(
        "--trajectory-every",
        type=int,
        metavar="N",
        help=(
            "record a trajectory frame every N events (serial) or "
            "N cycles (parallel); requires --trajectory (default: 1)"
        ),
    )
    coupled.add_argument(
        "--watchdog",
        type=float,
        metavar="SECONDS",
        help=(
            "deadline for each blocking recv/probe/collective/fence of "
            "the parallel KMC runtime (default: 60)"
        ),
    )
    _add_observe_flags(coupled)
    # Cross-flag validation in cmd_coupled routes through this parser's
    # own error() so it exits 2 exactly like argparse's built-in checks.
    coupled.set_defaults(_parser=coupled)

    cascade = sub.add_parser("cascade", help="run one MD cascade")
    cascade.add_argument("--cells", type=int, default=6)
    cascade.add_argument("--pka", type=float, default=120.0)
    cascade.add_argument("--steps", type=int, default=150)
    cascade.add_argument("--temperature", type=float, default=300.0)
    cascade.add_argument("--seed", type=int, default=3)
    _add_observe_flags(cascade)
    cascade.set_defaults(_parser=cascade)

    schemes = sub.add_parser(
        "kmc-schemes", help="compare parallel-KMC communication schemes"
    )
    schemes.add_argument("--cells", type=int, default=8)
    schemes.add_argument("--ranks", type=int, default=8)
    schemes.add_argument("--cycles", type=int, default=8)
    schemes.add_argument("--vacancies", type=int, default=20)
    schemes.add_argument("--seed", type=int, default=5)
    _add_backend_flags(schemes)
    _add_observe_flags(schemes)
    schemes.set_defaults(_parser=schemes)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("id", choices=sorted(FIGURES))
    _add_observe_flags(figure)

    return parser


def _profiling_requested(args) -> bool:
    return bool(getattr(args, "profile", False) or getattr(args, "trace", None))


def _start_observation(args):
    """Activate a fresh registry when ``--profile``/``--trace`` ask for one."""
    if not _profiling_requested(args):
        return None
    from repro import observe as obs

    return obs.enable()


def _finish_observation(args, registry) -> None:
    """Render/export the observation collected by a run command."""
    if registry is None:
        return
    from repro import observe as obs

    obs.disable()
    if args.profile:
        print()
        print(obs.format_report(registry))
    if args.trace:
        try:
            obs.write_chrome_trace(registry, args.trace)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}",
                  file=sys.stderr)
            raise SystemExit(1) from exc
        print(f"\ntrace written to {args.trace} (open in chrome://tracing)")


def _run_failures() -> tuple[type[BaseException], ...]:
    """The failures a run command reports as one ``error:`` line.

    A watchdog or world timeout names where the run stopped, and a
    protocol error each rank's collective or each leaking channel; a
    retry would fail the same way.  Used as an ``except`` clause, it is
    evaluated only while an exception propagates, so a run that succeeds
    never imports the message runtime for it.
    """
    from repro.runtime.simmpi import ProtocolError

    return (TimeoutError, ProtocolError)


def cmd_info(args) -> int:
    import repro
    from repro.perfmodel.machine import TAIHULIGHT

    print(f"repro {repro.__version__} — ICPP 2018 reproduction")
    print(
        "paper: Massively Scaling the Metal Microscopic Damage Simulation "
        "on Sunway TaihuLight Supercomputer (Li et al.)"
    )
    arch = TAIHULIGHT.arch
    print(
        f"\nmachine model: {TAIHULIGHT.nodes:,} nodes x "
        f"{TAIHULIGHT.cgs_per_node} CGs x {arch.cores_per_cg} cores = "
        f"{TAIHULIGHT.total_cores:,} cores"
    )
    print(
        f"  CPE local store {arch.local_store_bytes // 1024} KB, "
        f"{arch.memory_per_cg / 1024**3:.0f} GB/CG, "
        f"{arch.clock_hz / 1e9:.2f} GHz"
    )
    print("\nregenerable figures:")
    for fid, module in sorted(FIGURES.items()):
        print(f"  {fid:7s} -> repro.experiments.{module}")
    return 0


def cmd_coupled(args) -> int:
    if args.trajectory is None and args.trajectory_every is not None:
        args._parser.error("--trajectory-every requires --trajectory")
    # An output path that is a file would fail only after the MD stage.
    for flag, path in (("--trajectory", args.trajectory),
                       ("--checkpoint-dir", args.checkpoint_dir)):
        if path is not None and os.path.exists(path) and not os.path.isdir(path):
            args._parser.error(f"{flag} {path}: exists and is not a directory")
    from dataclasses import fields

    from repro.core.coupling import CoupledSimulation
    from repro.service import ScenarioSpec, SpecError

    given = {
        f.name: getattr(args, f.name)
        for f in fields(ScenarioSpec)
        if getattr(args, f.name) is not None
    }
    try:
        spec = ScenarioSpec(**given)
    except SpecError as exc:
        args._parser.error(str(exc))
    if spec.faults is not None:
        print(f"fault plan: {spec.faults}")
    registry = _start_observation(args)
    sim = CoupledSimulation(
        spec.to_coupled_config(
            trajectory=args.trajectory,
            checkpoint_dir=args.checkpoint_dir,
        )
    )
    print(f"coupled MD-KMC over {sim.lattice.nsites} sites ...")
    try:
        result = sim.run()
    except _run_failures() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"after MD : {result.report_after_md}")
    print(f"after KMC: {result.report_after_kmc}")
    print(
        f"{result.kmc_events} events over {result.kmc_time:.3g} ps "
        f"-> {result.real_time_seconds:.3g} s real time"
    )
    if result.fault_report is not None:
        fr = result.fault_report
        print(
            f"faults injected: {fr['injected']} "
            f"({fr['crashes']} crashes, {fr['delays']} delays); "
            f"recoveries: {result.recoveries}"
        )
    elif result.recoveries:
        print(f"recoveries: {result.recoveries}")
    if result.trajectory_path is not None:
        print(
            f"trajectory: {result.trajectory_frames} frames "
            f"-> {result.trajectory_path}"
        )
    _finish_observation(args, registry)
    return 0


def cmd_cascade(args) -> int:
    from repro.lattice.bcc import BCCLattice
    from repro.md.cascade import cascade_stage, run_cascade
    from repro.potential.fe import make_fe_potential
    from repro.service import ScenarioSpec, SpecError

    # What the flags cannot build is a usage error; what fails while
    # running is not.
    try:
        spec = ScenarioSpec(
            cells=args.cells,
            temperature=args.temperature,
            md_steps=args.steps,
            pka_energy=args.pka,
            seed=args.seed,
        )
    except SpecError as exc:
        args._parser.error(str(exc))
    lattice = BCCLattice(spec.cells, spec.cells, spec.cells)
    potential = make_fe_potential(n=spec.table_points)
    engine, cascade = cascade_stage(spec, lattice, potential)
    registry = _start_observation(args)
    result = run_cascade(engine, cascade)
    print(
        f"PKA {spec.pka_energy} eV -> {len(result.vacancy_rows)} vacancies, "
        f"{result.n_runaways} interstitials "
        f"({result.n_frenkel_pairs} Frenkel pairs); "
        f"final T {result.final_temperature:.0f} K"
    )
    _finish_observation(args, registry)
    return 0


def cmd_kmc_schemes(args) -> int:
    from repro.experiments._kmc_comm import SchemeComparison

    try:
        comparison = SchemeComparison(
            args.cells,
            args.vacancies,
            args.ranks,
            args.seed,
            backend=args.backend,
            workers=args.workers,
        )
    except ValueError as exc:
        args._parser.error(str(exc))
    registry = _start_observation(args)
    try:
        results = comparison.run(args.cycles)
    except _run_failures() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'scheme':>12} {'events':>7} {'bytes':>12} {'messages':>9}")
    for scheme, result in results.items():
        stats = result.comm_stats
        print(
            f"{scheme:>12} {result.events:>7} "
            f"{stats['total_sent_bytes']:>12,} "
            f"{stats['total_messages']:>9,}"
        )
    print("all schemes produced identical trajectories")
    _finish_observation(args, registry)
    return 0


def cmd_figure(args) -> int:
    import importlib

    registry = _start_observation(args)
    module = importlib.import_module(
        f"repro.experiments.{FIGURES[args.id]}"
    )
    module.main()
    _finish_observation(args, registry)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


#: Subcommand name -> handler; ``build_parser`` requires one of these.
_COMMANDS = {
    "info": cmd_info,
    "coupled": cmd_coupled,
    "cascade": cmd_cascade,
    "kmc-schemes": cmd_kmc_schemes,
    "figure": cmd_figure,
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
