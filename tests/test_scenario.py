"""Config serialization and the declarative scenario layer.

Four contracts:

* **Round trip** — ``SimulationConfig.from_dict(cfg.to_dict()) == cfg``
  for every valid config, every nested block drawn (fault plans, retry,
  client mixes, calibration, elastic schedules, the prefix tier), and
  surviving an actual JSON encode/decode (hypothesis property).
* **One schema** — every config class the type-hint walk reaches, and
  ``ServeConfig``, serializes through :class:`repro.serialize.Config`
  alone; only ``SystemConfig.from_dict`` (the preset shorthand) is its
  own.
* **Actionable errors** — unknown keys in any config dict name the bad
  key and the valid field names; a wrongly-typed nested block or a
  missing required key fails the load, not the run; malformed scenario
  files name the file and the problem.
* **Golden scenario** — the committed ``scenarios/p4_small.json`` is
  byte-identical in behaviour to the programmatic ``SimulationConfig``
  it mirrors: equal configs, equal run results, identical CLI output.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_registry import _config_classes

from repro.cluster.profile import CalibrationConfig
from repro.cluster.system import LARGE_SYSTEM, SMALL_SYSTEM, SystemConfig
from repro.core.elastic import (
    SCALE_TRIGGERS,
    WARMERS,
    ElasticPolicy,
    ScaleEvent,
)
from repro.core.migration import MigrationPolicy
from repro.core.replication import ReplicationPolicy
from repro.faults import (
    CrashFaults,
    FaultPlan,
    LinkFaults,
    ReplicaFaults,
    RetryPolicy,
)
from repro.prefix import PrefixPolicy
from repro.prefix.cache import PREFIX_STRATEGIES
from repro.prefix.chaining import BATCHING
from repro.scenario import Scenario, load_scenario, save_scenario
from repro.serialize import Config
from repro.serve.config import ServeConfig
from repro.simulation import SimulationConfig, run_simulation

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = SCENARIO_DIR / "p4_small.json"


def golden_config() -> SimulationConfig:
    """The programmatic twin of ``scenarios/p4_small.json``."""
    return SimulationConfig(
        system=SMALL_SYSTEM,
        theta=0.0,
        placement="even",
        migration=MigrationPolicy.paper_default(),
        staging_fraction=0.2,
        client_receive_bandwidth=30.0,
        duration=7200.0,
        warmup=900.0,
        seed=7,
    )


# ----------------------------------------------------------------------
# Hypothesis strategies over valid configs
# ----------------------------------------------------------------------

def finite(lo, hi):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


MIGRATIONS = st.builds(
    MigrationPolicy,
    enabled=st.booleans(),
    max_chain_length=st.integers(1, 3),
    max_hops_per_request=st.one_of(st.none(), st.integers(1, 4)),
)

FAULT_PLANS = st.builds(
    FaultPlan,
    crash=st.one_of(
        st.none(),
        st.builds(
            CrashFaults,
            mtbf=finite(100.0, 1e5),
            mttr=finite(10.0, 1e4),
            correlation=finite(0.0, 1.0),
        ),
    ),
    link=st.one_of(
        st.none(),
        st.builds(
            LinkFaults,
            mtbf=finite(100.0, 1e5),
            mttr=finite(10.0, 1e4),
        ),
    ),
    replica=st.one_of(
        st.none(),
        st.builds(ReplicaFaults, mean_interval=finite(100.0, 1e5)),
    ),
    start=finite(0.0, 100.0),
)

RETRIES = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 6),
    base_delay=finite(0.5, 10.0),
    max_delay=finite(60.0, 600.0),
)

REPLICATIONS = st.builds(
    ReplicationPolicy,
    max_concurrent_copies=st.integers(1, 8),
)

CALIBRATIONS = st.builds(
    CalibrationConfig,
    trials=st.integers(1, 9),
    jitter=finite(0.0, 0.49),
)

ELASTICS = st.builds(
    ElasticPolicy,
    events=st.lists(
        st.builds(
            ScaleEvent,
            time=finite(0.0, 1e5),
            action=st.sampled_from(["scale_out", "scale_in"]),
            server_id=st.one_of(st.none(), st.integers(0, 12)),
        ),
        max_size=4,
    ).map(tuple),
    trigger=st.sampled_from(SCALE_TRIGGERS.names()),
    warmer=st.sampled_from(WARMERS.names()),
    warm_fraction=finite(0.0, 1.0),
    drain_interval=finite(0.5, 60.0),
    reject_window=finite(1.0, 120.0),
    reject_threshold=st.integers(1, 20),
    cooldown=finite(0.0, 1000.0),
)

PREFIXES = st.builds(
    PrefixPolicy,
    strategy=st.sampled_from(PREFIX_STRATEGIES.names()),
    batching=st.sampled_from(BATCHING.names()),
    capacity_mb=finite(0.0, 1e5),
    prefix_seconds=finite(1.0, 600.0),
    window_seconds=finite(0.0, 300.0),
)

ARRIVAL_CHOICES = st.one_of(
    st.just(("poisson", ())),
    st.builds(
        lambda m: ("bursty", (("burst_multiplier", m),)),
        finite(0.5, 5.0),
    ),
)


@st.composite
def sim_configs(draw) -> SimulationConfig:
    from repro.core.schedulers import ALLOCATORS
    from repro.placement import PLACEMENTS

    duration = draw(finite(10.0, 1e6))
    arrivals, arrival_params = draw(ARRIVAL_CHOICES)
    pause_hazard = draw(st.one_of(st.just(0.0), finite(0.0, 0.01)))
    return SimulationConfig(
        system=draw(st.sampled_from([SMALL_SYSTEM, LARGE_SYSTEM])),
        theta=draw(finite(-1.0, 1.0)),
        placement=draw(st.sampled_from(PLACEMENTS.names())),
        migration=draw(MIGRATIONS),
        staging_fraction=draw(finite(0.0, 1.0)),
        scheduler=draw(st.sampled_from(ALLOCATORS.names())),
        duration=duration,
        warmup=duration * draw(finite(0.0, 0.9)),
        load=draw(finite(0.1, 2.0)),
        seed=draw(st.integers(0, 2**31)),
        client_receive_bandwidth=draw(finite(1.0, 100.0)),
        replication=draw(st.one_of(st.none(), REPLICATIONS)),
        pause_hazard=pause_hazard,
        mean_pause=draw(finite(1.0, 1000.0)),
        client_mix=draw(st.one_of(
            st.none(),
            st.lists(
                st.tuples(finite(0.1, 5.0), finite(0.0, 1.0)),
                min_size=1, max_size=3,
            ).map(tuple),
        )),
        faults=draw(st.one_of(st.none(), FAULT_PLANS)),
        retry=draw(st.one_of(st.none(), RETRIES)),
        invariants=draw(st.booleans()),
        arrivals=arrivals,
        arrival_params=arrival_params,
        calibration=draw(st.one_of(st.none(), CALIBRATIONS)),
        elastic=draw(st.one_of(st.none(), ELASTICS)),
        # The prefix tier refuses VCR interactivity (SimulationConfig).
        prefix=(
            draw(st.one_of(st.none(), PREFIXES)) if pause_hazard == 0
            else None
        ),
    )


class TestRoundTrip:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cfg=sim_configs())
    def test_from_dict_to_dict_round_trip(self, cfg):
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cfg=sim_configs())
    def test_survives_json_encode_decode(self, cfg):
        payload = json.loads(json.dumps(cfg.to_dict()))
        assert SimulationConfig.from_dict(payload) == cfg

    def test_partial_dict_uses_defaults(self):
        cfg = SimulationConfig.from_dict({"system": "small"})
        defaults = SimulationConfig(system=SMALL_SYSTEM, theta=cfg.theta)
        assert cfg.system == SMALL_SYSTEM
        assert cfg.placement == defaults.placement
        assert cfg.scheduler == defaults.scheduler
        assert cfg.migration == MigrationPolicy.disabled()
        assert cfg.faults is None and cfg.retry is None

    def test_system_preset_shorthand_forms_agree(self):
        by_string = SimulationConfig.from_dict({"system": "small"})
        by_preset = SimulationConfig.from_dict(
            {"system": {"preset": "small"}}
        )
        by_value = SimulationConfig.from_dict(
            {"system": SMALL_SYSTEM.to_dict()}
        )
        assert by_string == by_preset == by_value

    def test_preset_with_field_override(self):
        cfg = SystemConfig.from_dict({"preset": "small", "n_videos": 42})
        assert cfg.n_videos == 42
        assert cfg.server_bandwidths == SMALL_SYSTEM.server_bandwidths

    def test_nested_fault_plan_round_trip(self):
        plan = FaultPlan(
            crash=CrashFaults(mtbf=100.0, mttr=25.0, correlation=0.1),
            link=LinkFaults(mtbf=150.0, mttr=50.0),
            replica=ReplicaFaults(mean_interval=200.0),
            start=10.0,
        )
        assert FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        ) == plan


#: Every config class the type-hint walk reaches, plus the live layer's.
CONFIG_CLASSES = [*_config_classes(SimulationConfig), ServeConfig]

#: Nested blocks of the wrong type: each must fail the load, not the run.
WRONG_NESTED = [
    ({"migration": True}, "'migration' must be a mapping (a serialized "
                          "MigrationPolicy), got bool"),
    ({"retry": 3}, "'retry' must be a mapping (a serialized RetryPolicy), "
                   "got int"),
    ({"prefix": "window"}, "'prefix' must be a mapping (a serialized "
                           "PrefixPolicy), got str"),
]


class TestOneSchema:
    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
    def test_serializes_through_the_base_alone(self, cls):
        assert issubclass(cls, Config)
        own = {"to_dict", "from_dict"} & set(vars(cls))
        # The one declared special case: the system preset shorthand.
        assert own == ({"from_dict"} if cls is SystemConfig else set())


class TestActionableErrors:
    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
    def test_unknown_key_names_key_and_choices(self, cls):
        with pytest.raises(ValueError) as exc:
            cls.from_dict({"no_such_key": 1})
        message = str(exc.value)
        assert f"unknown {cls.__name__} key(s) 'no_such_key'" in message
        valid = message.split("valid keys: ")[1].split(", ")
        assert {f.name for f in dataclasses.fields(cls)} <= set(valid)

    @pytest.mark.parametrize("payload, fragment", WRONG_NESTED,
                             ids=["migration", "retry", "prefix"])
    def test_wrongly_typed_nested_block_rejected(self, payload, fragment):
        with pytest.raises(ValueError) as exc:
            SimulationConfig.from_dict({"system": "small", **payload})
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("payload, fragment", [
        ({"theta": 0.5}, "SimulationConfig dict is missing required key "
                         "'system'"),
        ({"system": "small", "faults": {"crash": {"mtbf": 100.0}}},
         "CrashFaults dict is missing required key 'mttr'"),
    ], ids=["system", "crash-mttr"])
    def test_missing_required_key_rejected(self, payload, fragment):
        with pytest.raises(ValueError) as exc:
            SimulationConfig.from_dict(payload)
        assert str(exc.value) == fragment

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ValueError, match="system 'huge'.*large"):
            SystemConfig.from_dict({"preset": "huge"})


class TestScenarioFiles:
    def test_save_load_round_trip(self, tmp_path):
        scenario = Scenario(
            name="t", description="d", config=golden_config()
        )
        path = tmp_path / "t.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded == scenario

    def test_save_is_byte_stable(self, tmp_path):
        scenario = Scenario(name="t", description="", config=golden_config())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(scenario, a)
        save_scenario(scenario, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_error_names_path(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read scenario"):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_scenario(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_scenario(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(
            {"name": "x", "config": {"system": "small"}, "author": "me"}
        ))
        with pytest.raises(ValueError, match="'author'.*valid keys"):
            load_scenario(path)

    def test_missing_config_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ValueError, match="missing the 'config'"):
            load_scenario(path)

    def test_config_typo_names_file(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(
            {"config": {"system": "small", "thteta": 0.5}}
        ))
        with pytest.raises(ValueError) as exc:
            load_scenario(path)
        assert "typo.json" in str(exc.value)
        assert "'thteta'" in str(exc.value)

    @pytest.mark.parametrize("extra, fragment", [
        ({"admission": "overbook"},
         "unknown SimulationConfig key(s) 'admission'; valid keys:"),
        ({"scheduler": "intermittent"},
         "unknown scheduler 'intermittent'; choose from: eftf, lftf"),
    ], ids=["admission", "scheduler"])
    def test_deleted_transmission_class_fails_at_load(
        self, tmp_path, extra, fragment
    ):
        # No dedicated validation is left for the deleted class: an old
        # scenario file is refused by the generic paths.
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"config": {"system": "small", **extra}}))
        with pytest.raises(ValueError) as exc:
            load_scenario(path)
        assert "old.json" in str(exc.value)
        assert fragment in str(exc.value)

    def test_every_committed_scenario_loads(self):
        files = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(files) >= 4
        for path in files:
            scenario = load_scenario(path)
            assert scenario.name
            assert scenario.description
            assert isinstance(scenario.config, SimulationConfig)


class TestGoldenScenario:
    """scenarios/p4_small.json ≡ its programmatic SimulationConfig."""

    def test_config_equality(self):
        assert load_scenario(GOLDEN).config == golden_config()

    def test_run_results_identical(self):
        from_file = run_simulation(load_scenario(GOLDEN).config)
        programmatic = run_simulation(golden_config())
        # SimulationResult equality covers every measured field
        # (provenance carries a timestamp and is excluded by design).
        assert from_file == programmatic

    def test_cli_output_byte_identical(self, capsys):
        from repro.cli import main

        assert main(["run", "--scenario", str(GOLDEN)]) == 0
        cli_out = capsys.readouterr().out
        result = run_simulation(golden_config())
        expected = (
            f"{result}\n"
            f"  arrivals={result.arrivals} accepted={result.accepted} "
            f"rejected={result.rejected} migrations={result.migrations} "
            f"events={result.events_fired}\n"
        )
        assert cli_out == expected

    def test_scenario_rejects_conflicting_flags(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(GOLDEN), "--theta", "0.5"])
        assert "--theta" in str(exc.value)

    def test_scenario_error_is_a_clean_exit(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(path)])
        assert "not valid JSON" in str(exc.value)

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario"],
        ["serve", "--scenario"],
        ["loadgen", "--port", "1", "--scenario"],
        ["verify"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("content, fragment", [
        (None, "cannot read scenario"),
        ('{"name": "cut", "config": {"system": "sma', "not valid JSON"),
        ('{"config": {"system": "small"}, "confg": 1}',
         "unknown scenario key(s) 'confg'"),
        ('{"config": {"system": "small", "thetta": 0.1}}', "invalid config"),
        *[
            (json.dumps({"config": {"system": "small", **payload}}), fragment)
            for payload, fragment in WRONG_NESTED
        ],
    ], ids=["missing", "truncated", "unknown-key", "unknown-config-key",
            "migration-bool", "retry-int", "prefix-str"])
    def test_every_scenario_verb_exits_with_one_line(
        self, tmp_path, argv, content, fragment
    ):
        # One typed path: whichever verb loads the file, a bad one ends
        # the process with the loader's one-line message, no traceback.
        from repro.cli import main

        path = tmp_path / "bad.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(path)])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert fragment in message and str(path) in message

    def test_invalid_json_error_names_parse_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": nope}')
        with pytest.raises(ValueError) as err:
            load_scenario(path)
        message = str(err.value)
        assert "\n" not in message, "must be a one-line, pasteable error"
        assert str(path) in message
        assert "line 1 column 10" in message

    def test_undecodable_bytes_error_names_offset(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"name": "\xff\xfe"}')
        with pytest.raises(ValueError) as err:
            load_scenario(path)
        message = str(err.value)
        assert "\n" not in message
        assert str(path) in message
        assert "offset 10" in message
