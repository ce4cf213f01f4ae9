"""ScenarioSpec serialization, validation, and content-addressed keys."""

import json

import pytest

import repro
from repro.runtime.simmpi import World
from repro.service.spec import (
    EXECUTION_FIELDS,
    IDENTITY_FIELDS,
    SPEC_SCHEMA_VERSION,
    ScenarioSpec,
    SpecError,
    canonical_json,
)


class TestRoundTrip:
    def test_to_from_dict_exact(self):
        spec = ScenarioSpec(
            cells=8, md_steps=40, pka_energy=150.0, kmc_nranks=4,
            trajectory_every=2, seed=7, faults="crash:rank=1,cycle=3",
            checkpoint_every=2, backend="process", workers=2,
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.key() == spec.key()

    def test_dict_is_json_serializable(self):
        payload = json.dumps(ScenarioSpec().to_dict())
        assert ScenarioSpec.from_dict(json.loads(payload)) == ScenarioSpec()

    def test_unknown_field_rejected(self):
        data = ScenarioSpec().to_dict()
        data["flux_capacitor"] = 1.21
        with pytest.raises(SpecError, match="flux_capacitor"):
            ScenarioSpec.from_dict(data)


class TestKey:
    def test_key_is_sha256_of_canonical_identity(self):
        import hashlib

        spec = ScenarioSpec()
        expected = hashlib.sha256(
            canonical_json(spec.identity()).encode("ascii")
        ).hexdigest()
        assert spec.key() == expected

    def test_identity_carries_schema_and_code_version(self):
        ident = ScenarioSpec().identity()
        assert ident["schema"] == SPEC_SCHEMA_VERSION
        assert ident["code"] == repro.__version__
        for name in IDENTITY_FIELDS:
            assert name in ident

    def test_numeric_coercion_does_not_split_cache(self):
        # A float-typed cell count (e.g. from YAML/JSON round trips)
        # must hash identically to the int form.
        assert ScenarioSpec(cells=8.0).key() == ScenarioSpec(cells=8).key()
        assert ScenarioSpec(cells=8.0).cells == 8

    def test_non_integral_int_rejected(self):
        with pytest.raises(SpecError, match="cells"):
            ScenarioSpec(cells=8.5)

    def test_seed_changes_key(self):
        assert ScenarioSpec(seed=7).key() != ScenarioSpec(seed=8).key()

    @pytest.mark.parametrize("name", IDENTITY_FIELDS)
    def test_every_identity_field_changes_key(self, name):
        base = ScenarioSpec()
        changed = {
            "cells": 9, "temperature": 700.0, "potential": "fe",
            "table_points": 1500, "md_steps": 40, "pka_energy": 150.0,
            "kmc_max_events": 100, "kmc_nranks": 4, "kmc_max_cycles": 10,
            "recombination_radius": 3.0, "trajectory_every": 2, "seed": 1,
        }[name]
        spec = ScenarioSpec(**{name: changed})
        if getattr(base, name) == changed:  # potential has one value today
            assert spec.key() == base.key()
        else:
            assert spec.key() != base.key()

    @pytest.mark.parametrize("name,value", [
        ("kmc_scheme", "onesided"),
        ("backend", "process"),
        ("workers", 4),
        ("faults", "crash:rank=1,cycle=3"),
        ("checkpoint_every", 2),
        ("watchdog", 60.0),
    ])
    def test_execution_fields_do_not_change_key(self, name, value):
        assert name in EXECUTION_FIELDS
        # On the parallel engine, where every value here can run.
        base = {"kmc_nranks": 4}
        assert (
            ScenarioSpec(**base, **{name: value}).key()
            == ScenarioSpec(**base).key()
        )


class TestValidation:
    @pytest.mark.parametrize("kwargs,match", [
        ({"cells": 2}, "cells"),
        ({"temperature": -5.0}, "temperature"),
        ({"potential": "w"}, "potential"),
        ({"table_points": 1}, "table_points"),
        ({"md_steps": 0}, "md_steps"),
        ({"pka_energy": -1.0}, "pka_energy"),
        ({"kmc_max_events": -1}, "kmc_max_events"),
        ({"kmc_nranks": 0}, "kmc_nranks"),
        ({"kmc_max_cycles": 0}, "kmc_max_cycles"),
        ({"recombination_radius": 0.0}, "recombination_radius"),
        ({"trajectory_every": 0}, "trajectory_every"),
        ({"kmc_scheme": "telepathy"}, "kmc_scheme"),
        ({"backend": "gpu"}, "backend"),
        ({"workers": 0}, "workers"),
        ({"checkpoint_every": 0}, "checkpoint_every"),
        ({"watchdog": 0.0}, "watchdog"),
        ({"faults": "explode:rank=0,cycle=1"}, "bad faults plan"),
        # Infeasible decompositions: subdomains too small to sector,
        # and a rank count with no process grid over the cells.
        ({"cells": 5, "kmc_nranks": 8}, r"cells=5 .*kmc_nranks=8 .*\(2, 2, 2\)"),
        ({"cells": 6, "kmc_nranks": 7}, "cells=6 .*kmc_nranks=7 .*process grid"),
        ({"faults": "crash:rank=abc,cycle=1"}, "bad faults plan: .*rank=abc"),
        ({"faults": "shake:seed=1"}, "bad faults plan: .*'shake'"),
        # Non-finite floats: NaN passes every range check, +inf most.
        ({"temperature": float("nan")}, "temperature must be finite"),
        ({"temperature": float("inf")}, "temperature must be finite"),
        ({"pka_energy": float("inf")}, "pka_energy must be finite"),
        ({"recombination_radius": float("nan")},
         "recombination_radius must be finite"),
        ({"watchdog": float("inf")}, "watchdog must be finite"),
        ({"watchdog": "nan"}, "watchdog must be finite"),
        # A plan that cannot fire on its engine names the clause: ranks
        # beyond the world, cycles and delays on the serial engine
        # (which has events and no World), events on the parallel one.
        ({"faults": "crash:rank=1,event=3"},
         r"bad faults plan: 'crash:rank=1,event=3' .*serial engine"),
        ({"faults": "crash:rank=0,cycle=3"},
         r"bad faults plan: 'crash:rank=0,cycle=3' .*serial engine"),
        ({"faults": "delay:rank=0,nth=1,seconds=0.1"},
         "bad faults plan: 'delay:rank=0,nth=1,seconds=0.1' .*serial engine"),
        ({"kmc_nranks": 2, "faults": "crash:rank=2,cycle=1"},
         "bad faults plan: 'crash:rank=2,cycle=1' .*2-rank parallel engine"),
        ({"kmc_nranks": 2, "faults": "delay:rank=2,nth=1,seconds=0.1,op=put"},
         "bad faults plan: .*'delay:rank=2.*2-rank parallel engine"),
        ({"kmc_nranks": 2, "faults": "crash:rank=0,event=3"},
         "bad faults plan: 'crash:rank=0,event=3' .*2-rank parallel engine"),
    ])
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(SpecError, match=match):
            ScenarioSpec(**kwargs)

    def test_plans_that_fit_their_engine_accepted(self):
        serial = ScenarioSpec(faults="crash:rank=0,event=3")
        assert serial.faults == "crash:rank=0,event=3"
        plan = "crash:rank=1,cycle=3; delay:rank=0,nth=2,seconds=0.01,op=put"
        assert ScenarioSpec(kmc_nranks=2, faults=plan).faults == plan

    def test_an_empty_plan_composes_no_fault_layer(self):
        # An empty plan is no plan: the spec holds None, so the run
        # builds no injector and its worlds compose no fault layer.
        for plan in ("", " ; "):
            assert ScenarioSpec(kmc_nranks=2, faults=plan).faults is None
        for backend in ("thread", "overdecomposed"):
            world = World(2, faults=None, backend=backend, workers=2)
            assert world.run(lambda comm: comm.layers) == [("traffic",)] * 2

    def test_feasible_decomposition_accepted(self):
        assert ScenarioSpec(cells=8, kmc_nranks=8).kmc_nranks == 8
        assert ScenarioSpec(cells=5, kmc_nranks=1).kmc_nranks == 1

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestCoupledConfig:
    def test_defaults_map_through(self, potential):
        from repro.core.coupling import CoupledSimulation

        spec = ScenarioSpec(cells=6, seed=7, temperature=450.0)
        config = spec.to_coupled_config()
        assert config.spec is spec
        assert config.trajectory is None
        assert config.checkpoint_dir is None
        # No MD overrides: the default cascade at the spec's temperature.
        cascade = CoupledSimulation(config, potential).cascade_config()
        assert (cascade.nsteps, cascade.pka_energy) == (200, 120.0)
        assert cascade.temperature == 450.0

    def test_md_overrides_build_cascade_config(self, potential):
        from repro.core.coupling import CoupledSimulation

        config = ScenarioSpec(
            cells=6, md_steps=40, pka_energy=150.0, temperature=450.0
        ).to_coupled_config()
        cascade = CoupledSimulation(config, potential).cascade_config()
        assert cascade.nsteps == 40
        assert cascade.pka_energy == 150.0
        assert cascade.temperature == 450.0

    def test_caller_paths_pass_through(self, tmp_path):
        config = ScenarioSpec(trajectory_every=3).to_coupled_config(
            trajectory=str(tmp_path / "t"),
            checkpoint_dir=str(tmp_path / "c"),
        )
        assert config.trajectory == str(tmp_path / "t")
        assert config.checkpoint_dir == str(tmp_path / "c")
        assert config.spec.trajectory_every == 3
