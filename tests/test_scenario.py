"""Catalog golden values and world instantiation."""
import numpy as np
import pytest

from comal import dynamics as dyn
from comal import scenario as sc

# embedded copy of the benchmark table: name -> (horizon s, humans, cavs, penetration)
BENCHMARK_TABLE = {
    "FE 0": (150.0, 13, 1, 0.0),
    "FE 1": (150.0, 7, 7, 0.0),
    "FE 2": (150.0, 0, 14, 0.0),
    "Ring 0": (150.0, 21, 1, 0.0),
    "Ring 1": (150.0, 19, 3, 0.0),
    "Ring 2": (150.0, 11, 11, 0.0),
    "Merge 0": (75.0, 0, 0, 0.10),
    "Merge 1": (75.0, 0, 0, 0.25),
    "Merge 2": (75.0, 0, 0, 1.0 / 3.0),
    "Merge 3": (75.0, 0, 0, 0.50),
    "Merge 4": (75.0, 0, 0, 0.90),
}


class TestCatalog:
    def test_matches_embedded_table_exactly(self):
        cat = {c.name: c for c in sc.catalog()}
        assert set(cat) == set(BENCHMARK_TABLE)
        for name, (horizon, humans, cavs, pen) in BENCHMARK_TABLE.items():
            cfg = cat[name]
            assert cfg.horizon_s == horizon
            assert cfg.n_humans == humans
            assert cfg.n_cavs == cavs
            assert cfg.penetration == pen

    def test_ring_geometry_holds_22_vehicles(self):
        cfg = sc.find("Ring 0")
        assert cfg.ring_length_m == 230.0
        assert cfg.n_humans + cfg.n_cavs == 22

    def test_merge_third_is_exact(self):
        assert sc.find("Merge 2").penetration == 1.0 / 3.0

    def test_find_is_forgiving(self):
        assert sc.find("ring-1").name == "Ring 1"
        assert sc.find("FE_2").name == "FE 2"
        assert sc.find("merge 4").name == "Merge 4"
        with pytest.raises(KeyError):
            sc.find("nope")

    def test_overrides(self):
        cfg = sc.apply_overrides(sc.find("Ring 0"), {"seed": 9, "noise_std": 0.1})
        assert cfg.seed == 9 and cfg.noise_std == 0.1
        with pytest.raises(ValueError):
            sc.apply_overrides(cfg, {"not_a_field": 1})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sc.ScenarioConfig(name="x", topology="ring", horizon_s=10.0, warmup_s=10.0)
        with pytest.raises(ValueError):
            sc.ScenarioConfig(name="x", topology="spiral", horizon_s=10.0)
        with pytest.raises(ValueError):
            sc.ScenarioConfig(name="x", topology="merge", horizon_s=75.0, penetration=1.5)

    # each of these used to pass: a negative replan interval replanned every
    # step, a negative horizon emptied every neighbor list, zero rounds failed
    # only after warmup, a negative noise failed at a merge's first spawn, and
    # a length, speed limit or inflow rate that is not > 0 failed inside the
    # run, raised by the network or a vehicle
    @pytest.mark.parametrize("key, value", [
        ("replan_interval_s", 0.0), ("replan_interval_s", -1.0),
        ("perception_horizon_m", -0.5), ("collab_max_rounds", 0),
        ("noise_std", -0.1), ("speed_limit", -1.0), ("vehicle_length_m", 0.0),
        ("ring_length_m", 0.0), ("loop_radius_m", -30.0), ("highway_length_m", 0.0),
        ("ramp_length_m", -100.0), ("highway_inflow_vph", 0.0),
        ("ramp_inflow_vph", float("nan"))])
    def test_rejects_values_that_misbehave_later(self, key, value):
        with pytest.raises(ValueError, match=key):
            sc.apply_overrides(sc.find("Ring 0"), {key: value})

    def test_keeps_the_boundary_values(self):
        cfg = sc.apply_overrides(sc.find("Merge 0"), {
            "perception_horizon_m": 0.0, "collab_max_rounds": 1, "noise_std": 0.0,
            "replan_interval_s": 0.05})
        assert cfg.perception_horizon_m == 0.0 and cfg.noise_std == 0.0


class TestInstantiate:
    def test_ring0_uniform_equilibrium(self):
        cfg = sc.find("Ring 0")
        w = sc.instantiate(cfg)
        assert w.size == 22
        gaps = np.unique(w.gap)
        assert len(gaps) == 1  # bit-identical gaps by construction
        assert gaps[0] == pytest.approx(230.0 / 22 - 5.0)
        # equilibrium oracle from the dynamics module
        veq = dyn.equilibrium_speed(dyn.human_params(30.0), 230.0 / 22 - 5.0)
        assert np.unique(w.speed) == pytest.approx(veq)

    def test_ring1_cav_interleaving(self):
        w = sc.instantiate(sc.find("Ring 1"))
        cav_idx = [i for i, k in enumerate(w.kinds) if k == "cav"]
        assert cav_idx == [0, 8, 16]

    def test_fe2_all_cav(self):
        w = sc.instantiate(sc.find("FE 2"))
        assert w.size == 14
        assert all(k == "cav" for k in w.kinds)

    def test_fe1_alternates(self):
        w = sc.instantiate(sc.find("FE 1"))
        assert [i for i, k in enumerate(w.kinds) if k == "cav"] == list(range(0, 14, 2))

    def test_clustered_placement(self):
        cfg = sc.find("Ring 1").replace(cav_placement="clustered")
        w = sc.instantiate(cfg)
        assert [i for i, k in enumerate(w.kinds) if k == "cav"] == [0, 1, 2]

    def test_capacity_error(self):
        cfg = sc.find("Ring 0").replace(n_humans=50, n_cavs=0)
        with pytest.raises(ValueError):
            sc.instantiate(cfg)

    def test_merge_starts_empty_with_inflows(self):
        w = sc.instantiate(sc.find("Merge 3"))
        assert w.size == 0
        assert len(w.inflows) == 2
        assert w.inflows[0].cav_fraction == 0.50
        assert w.inflows[1].cav_fraction == 0.0  # ramp arrivals stay human

    def test_merge_arrivals_take_the_configured_length(self):
        cfg = sc.find("Merge 1").replace(vehicle_length_m=7.5)
        w = sc.instantiate(cfg)
        for _ in range(int(round(20.0 / cfg.dt))):
            dyn.step(w, cfg.dt)
        assert w.size > 0 and set(w.length.tolist()) == {7.5}

    def test_placement_ignores_seed(self):
        a = sc.instantiate(sc.find("Ring 1").replace(seed=1))
        b = sc.instantiate(sc.find("Ring 1").replace(seed=2))
        np.testing.assert_array_equal(a.arc, b.arc)
        np.testing.assert_array_equal(a.speed, b.speed)
        assert a.kinds == b.kinds

    def test_all_human_variant(self):
        base = sc.find("Ring 1").all_human()
        assert base.n_cavs == 0 and base.n_humans == 22
        merge = sc.find("Merge 4").all_human()
        assert merge.penetration == 0.0
