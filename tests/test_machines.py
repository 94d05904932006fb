"""MachineSpec: parsing, describe round-trips, defaults and resolution."""

from __future__ import annotations

import pytest

from repro import MachineSpec, default_machines
from repro.config import ExecutionSettings, resolve_machines


class TestMachineSpec:
    def test_uniform_is_degenerate(self):
        spec = MachineSpec.uniform(8)
        assert spec.p == 8
        assert spec.is_uniform
        assert spec.speeds == (1.0,) * 8
        assert spec.total_speed == 8.0
        assert spec.min_speed == spec.max_speed == 1.0

    def test_parse_count_groups(self):
        spec = MachineSpec.parse("4x1,4x2")
        assert spec.speeds == (1.0,) * 4 + (2.0,) * 4
        assert not spec.is_uniform

    def test_parse_bare_speeds(self):
        assert MachineSpec.parse("1,2,4").speeds == (1.0, 2.0, 4.0)

    def test_parse_accepts_plus_separator(self):
        assert MachineSpec.parse("4x1+4x2") == MachineSpec.parse("4x1,4x2")

    def test_describe_parse_round_trip(self):
        for text in ("4x1+4x2", "1+2+4", "3x0.5+2+2x8", "1"):
            spec = MachineSpec.parse(text)
            assert MachineSpec.parse(spec.describe()) == spec

    def test_describe_run_length_form(self):
        assert MachineSpec.parse("4x1,4x2").describe() == "4x1+4x2"
        assert MachineSpec.uniform(8).describe() == "8x1"
        assert MachineSpec((1.0,)).describe() == "1"

    @pytest.mark.parametrize("bad", ("", "4x", "x2", "0x1", "-1x2", "1,,2",
                                     "4xfast", "1,0", "1,-2", "1,inf"))
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            MachineSpec.parse(bad)

    def test_speeds_must_be_positive_finite(self):
        with pytest.raises(ValueError):
            MachineSpec((1.0, 0.0))
        with pytest.raises(ValueError):
            MachineSpec((float("nan"),))
        with pytest.raises(ValueError):
            MachineSpec(())

    def test_modular_extension_past_p(self):
        spec = MachineSpec.parse("1,4")
        assert spec.speed(0) == 1.0
        assert spec.speed(1) == 4.0
        # Block servers beyond p live on the same physical machines.
        assert spec.speed(2) == 1.0
        assert spec.speed(7) == 4.0

    def test_cycle_to_repeats_pattern(self):
        spec = MachineSpec.parse("1,4").cycle_to(5)
        assert spec.speeds == (1.0, 4.0, 1.0, 4.0, 1.0)
        assert MachineSpec.parse("2x1").cycle_to(1).speeds == (1.0,)

    def test_cycle_to_carries_capacities(self):
        spec = MachineSpec((1.0, 2.0), capacities=(100.0, None)).cycle_to(4)
        assert spec.capacities == (100.0, None, 100.0, None)

    def test_capacities_validated(self):
        spec = MachineSpec((1.0, 2.0), capacities=(50.0, None))
        assert spec.capacity(0) == 50.0
        assert spec.capacity(1) is None
        assert spec.capacity(2) == 50.0  # modular, like speed()
        with pytest.raises(ValueError):
            MachineSpec((1.0,), capacities=(1.0, 2.0))
        with pytest.raises(ValueError):
            MachineSpec((1.0,), capacities=(0.0,))

    def test_weights_are_speed_proportional(self):
        spec = MachineSpec.parse("1,3")
        assert spec.weights() == (0.25, 0.75)
        assert spec.weights(4) == (0.125, 0.375, 0.125, 0.375)
        assert sum(spec.weights(7)) == pytest.approx(1.0)

    def test_speed_classes(self):
        spec = MachineSpec.parse("2x4,2x1")
        assert spec.speed_classes() == {1.0: (2, 3), 4.0: (0, 1)}

    def test_hashable_for_memo_keys(self):
        a = MachineSpec.parse("4x1,4x2")
        b = MachineSpec.parse("4x1+4x2")
        assert hash(a) == hash(b) and a == b


class TestResolveMachines:
    def test_none_stays_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_MACHINES", raising=False)
        assert resolve_machines(None, 8) is None

    def test_explicit_spec_must_match_p(self):
        spec = MachineSpec.parse("4x1,4x2")
        assert resolve_machines(spec, 8) is spec
        with pytest.raises(ValueError):
            resolve_machines(spec, 16)

    def test_default_pattern_cycles_to_p(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_MACHINES", "1,4")
        assert default_machines() == MachineSpec.parse("1,4")
        resolved = resolve_machines(None, 6)
        assert resolved.speeds == (1.0, 4.0) * 3
        monkeypatch.delenv("REPRO_DEFAULT_MACHINES")
        assert default_machines() is None

    def test_settings_reject_non_spec(self):
        with pytest.raises(TypeError):
            ExecutionSettings(machines="4x1,4x2")
        spec = MachineSpec.parse("4x1,4x2")
        assert ExecutionSettings(machines=spec).machines is spec
