"""Rule plugins; importing this package registers every rule."""

from repro.analyze.rules import determinism, numeric, observe_use, protocol
