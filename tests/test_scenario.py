"""Tests for the declarative scenario layer (`repro.scenario`).

Three contracts matter here:

* serialization is lossless -- ``from_dict(to_dict(s)) == s`` for every
  registered preset, including the nested ARQ and fault-plan sections;
* ``scenario_hash`` is stable -- the golden hashes below pin the
  canonical form, so an accidental field rename or default change (which
  would silently orphan every cache entry and telemetry stamp) fails
  loudly;
* ``build()`` is equivalent to the historical hand-wired path -- same
  rng draws, byte-identical session results.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import Scene
from repro.link import run_backscatter_session
from repro.link.arq import ArqConfig
from repro.faults import Blocker, FaultPlan
from repro.reader import BackFiReader, ReaderConfig
from repro.scenario import (
    LinkConfig,
    ScenarioConfig,
    arq_disabled_config,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.tag import BackFiTag, TagConfig

# Re-pinned whenever the schema gains a (null-defaulting) section --
# network in PR 6, streaming in PR 7, chaos in PR 9 -- every canonical
# dict, and so every hash, shifts.
GOLDEN_HASHES = {
    "chaos-lab": "8aaadd8dc60266af",
    "city-block-1m": "40d3c48c4d61e9da",
    "coex-0.25m": "37e397ffa7a870bb",
    "fig8-0.5m": "722d11b2101718eb",
    "fig8-1m": "e84c6b092a2910de",
    "fig8-2m": "323e5649f3cc9c38",
    "fig8-3m": "0f2d277fa6c8f678",
    "fig8-5m": "1b22985a5696373b",
    "fig8-7m": "6336e8ddbb7e4e7c",
    "mobility-2m": "da4a5235af4088ce",
    "paper-1m": "e461f236fb66df54",
    "paper-5m": "05514d54938e31a3",
    "robust-p0-arq": "4bcb22d2230bb849",
    "robust-p0-noarq": "c1667c965e977e7f",
    "robust-p0.3-arq": "8c2e0d47b5cd1947",
    "robust-p0.3-noarq": "2465c42cb8810e3e",
    "robust-p0.6-arq": "c12f373e6b43b966",
    "robust-p0.6-noarq": "2220cb12195c5c4c",
    "robust-p0.9-arq": "ac3a6c428b856890",
    "robust-p0.9-noarq": "b05496d389f34a6a",
    "sensor-2m": "10977eb7b73079c4",
    "streaming-50": "19d88c2a1259b377",
    "warehouse-10k": "9955cfa66dc7a4b6",
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
    def test_dict_round_trip(self, name):
        sc = get_scenario(name)
        assert ScenarioConfig.from_dict(sc.to_dict()) == sc

    @pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
    def test_json_round_trip(self, name, tmp_path):
        sc = get_scenario(name)
        path = tmp_path / "sc.json"
        path.write_text(sc.to_json())
        assert ScenarioConfig.from_json(path.read_text()) == sc

    def test_arq_and_faults_survive(self):
        sc = ScenarioConfig(
            arq=arq_disabled_config(),
            faults=FaultPlan([Blocker(gain_db=-30.0, probability=0.5)],
                             seed=3),
        )
        back = ScenarioConfig.from_dict(sc.to_dict())
        assert back.arq == sc.arq
        assert back.faults == sc.faults

    def test_unknown_key_rejected(self):
        data = ScenarioConfig().to_dict()
        data["not_a_field"] = 1
        with pytest.raises(ValueError, match="not_a_field"):
            ScenarioConfig.from_dict(data)

    def test_missing_sections_default(self):
        sc = ScenarioConfig.from_dict({"distance_m": 2.0})
        assert sc == ScenarioConfig(distance_m=2.0)


class TestHashes:
    def test_every_preset_pinned(self):
        assert sorted(GOLDEN_HASHES) == list_scenarios()

    @pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
    def test_golden_hash(self, name):
        assert get_scenario(name).scenario_hash() == GOLDEN_HASHES[name]

    def test_labels_excluded(self):
        base = ScenarioConfig()
        labelled = base.replace(name="x", description="y")
        assert labelled.scenario_hash() == base.scenario_hash()

    def test_physics_included(self):
        base = ScenarioConfig()
        assert base.replace(distance_m=2.0).scenario_hash() \
            != base.scenario_hash()
        assert base.replace(
            reader=ReaderConfig(sync_search_us=4.0)).scenario_hash() \
            != base.scenario_hash()

    def test_survives_round_trip(self):
        sc = get_scenario("robust-p0.6-arq")
        back = ScenarioConfig.from_dict(sc.to_dict())
        assert back.scenario_hash() == sc.scenario_hash()


class TestOverrides:
    def test_top_level(self):
        assert ScenarioConfig().with_overrides("distance_m=5") \
            .distance_m == 5.0

    def test_nested_reader(self):
        sc = ScenarioConfig().with_overrides("reader.sync_search_us=4")
        assert sc.reader.sync_search_us == 4.0

    def test_raw_string_fallback(self):
        # "1/2" is not valid JSON; the raw string is kept.
        sc = ScenarioConfig().with_overrides("tag.modulation=16psk",
                                             "tag.code_rate=2/3")
        assert sc.tag.modulation == "16psk"
        assert sc.tag.code_rate == "2/3"

    def test_null_arq_section_gets_defaults(self):
        sc = ScenarioConfig().with_overrides("arq.fallback_after=2")
        assert sc.arq is not None
        assert sc.arq.fallback_after == 2

    def test_unknown_path_rejected(self):
        # The streaming keys are retired fields, refused like any other.
        for assignment in ("reader.bogus=1", "streaming.ring_chunks=8",
                           "streaming.backpressure=shed"):
            with pytest.raises(KeyError):
                ScenarioConfig().with_overrides(assignment)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            ScenarioConfig().with_overrides("distance_m")

    def test_original_untouched(self):
        base = ScenarioConfig()
        base.with_overrides("distance_m=9")
        assert base.distance_m == 1.0

    @pytest.mark.parametrize("assignment, path", [
        ("seed=abc", "seed"), ("seed=1.5", "seed"), ("seed=true", "seed"),
        ("link=3", "link"), ('distance_m="far"', "distance_m"),
        ("link.include_cts=1", "link.include_cts"),
        ("link.preamble_us=abc", "link.preamble_us"),
        ("tag.modulation=7", "tag.modulation"), ("arq=3", "arq"),
        ("arq.floor_config=[]", "arq.floor_config"),
        ("faults.events=3", "faults.events"),
        ('link={"n_payload_bits": "x"}', "link.n_payload_bits"),
        ('arq.floor_config={"modulation": 3}', "arq.floor_config.modulation"),
        ('faults.events=[{"kind": "blocker", "gain_db": "x"}]',
         "faults.events[0].gain_db"),
        ('chaos={"events": [7]}', "chaos.events[0]"),
        ('faults.events=[{"kind": []}]', "faults.events[0].kind"),
        ("tag.symbol_rate_hz=1" + "0" * 400, "tag.symbol_rate_hz"),
    ])
    def test_mistyped_value_rejected(self, assignment, path):
        with pytest.raises(ValueError, match=re.escape(repr(path))):
            ScenarioConfig().with_overrides(assignment)

    @pytest.mark.parametrize("assignment", [
        "distance_m=2", "link.preamble_us=96", "link.preamble_us=null",
        "link.include_cts=false", "streaming.decode_workers=2", "arq=null",
        "arq={}", "tag.code_rate=1/2",
    ])
    def test_fitting_value_accepted(self, assignment):
        ScenarioConfig().with_overrides(assignment)

    def test_mistyped_scenario_json_rejected(self):
        data = get_scenario("paper-1m").to_dict()
        data["reader"]["sync_search_us"] = "wide"
        with pytest.raises(ValueError, match="'reader.sync_search_us'"):
            ScenarioConfig.from_json(json.dumps(data))
        with pytest.raises(ValueError, match="'scenario'"):
            ScenarioConfig.from_json("[]")


def _override_paths(node, prefix=""):
    """Every dotted path ``with_overrides`` can address in ``node``."""
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _override_paths(value, f"{prefix}{key}.")


_FULL = get_scenario("robust-p0.3-arq").replace(
    streaming=get_scenario("chaos-lab").streaming,
    chaos=get_scenario("chaos-lab").chaos,
    network=get_scenario("city-block-1m").network)
_PATHS = sorted(_override_paths(_FULL.to_dict()))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(sorted({p.rpartition(".")[2] for p in _PATHS}
                               | {"kind"})) | st.text(max_size=4),
        inner | st.sampled_from(["blocker", "chunk-drop"]), max_size=4),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(_PATHS), value=_JSON)
def test_any_override_is_applied_or_a_typed_error(path, value):
    """Whatever JSON an override carries, ``with_overrides`` returns a
    scenario or raises ``KeyError``/``ValueError`` (which the service
    answers with a 400), never another exception."""
    try:
        _FULL.with_overrides(f"{path}={json.dumps(value)}")
    except (KeyError, ValueError):
        pass


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="no-such-scenario"):
            get_scenario("no-such-scenario")

    def test_duplicate_rejected_then_overwritable(self):
        sc = ScenarioConfig(name="paper-1m")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(sc)
        original = get_scenario("paper-1m")
        try:
            register_scenario(sc, overwrite=True)
            assert get_scenario("paper-1m") == sc
        finally:
            register_scenario(original, overwrite=True)

    def test_unnamed_rejected(self):
        with pytest.raises(ValueError, match="name"):
            register_scenario(ScenarioConfig())


class TestBuildEquivalence:
    def test_paper_1m_matches_hand_wired_path(self):
        """`paper-1m` reproduces the pre-scenario quickstart wiring
        byte-for-byte at a fixed seed."""
        rng = np.random.default_rng(2015)
        cfg = TagConfig(modulation="qpsk", code_rate="1/2",
                        symbol_rate_hz=1e6)
        scene = Scene.build(tag_distance_m=1.0, rng=rng)
        ref = run_backscatter_session(
            scene, BackFiTag(cfg), BackFiReader(cfg),
            n_payload_bits=1000, wifi_rate_mbps=24,
            wifi_payload_bytes=1500, rng=rng,
        )

        rng2 = np.random.default_rng(2015)
        out = get_scenario("paper-1m").build(rng=rng2).run(rng=rng2)

        assert out.ok == ref.ok
        assert out.delivered_bits == ref.delivered_bits
        assert out.goodput_bps == ref.goodput_bps
        assert out.reader.symbol_snr_db == ref.reader.symbol_snr_db
        assert np.array_equal(out.payload_bits, ref.payload_bits)
        assert np.array_equal(out.reader.payload_bits,
                              ref.reader.payload_bits)
        assert np.array_equal(out.timeline.samples, ref.timeline.samples)

    def test_build_consumes_one_scene_draw(self):
        """build() consumes exactly the draws Scene.build would, so the
        historical `Scene.build(...); run(...)` rng pattern maps 1:1."""
        sc = ScenarioConfig(distance_m=2.0)
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        sc.build(rng=a)
        Scene.build(tag_distance_m=2.0, rng=b)
        assert a.bit_generator.state == b.bit_generator.state

    def test_reader_config_applied(self):
        sc = ScenarioConfig(reader=ReaderConfig(sync_search_us=4.0,
                                                track_phase=True))
        built = sc.build()
        assert built.reader.sync_search_us == 4.0
        assert built.reader.track_phase is True
        assert built.reader.config == sc.reader

    def test_link_overrides_reach_session(self):
        sc = ScenarioConfig(link=LinkConfig(n_payload_bits=200,
                                            wifi_payload_bytes=900))
        out = sc.build().run()
        assert out.payload_bits.size == 200

    def test_arq_preset_wires_arq_link(self):
        from repro.link.arq import ArqLink

        link = ArqLink.from_scenario(get_scenario("robust-p0.3-arq"))
        assert link.arq == ArqConfig()
        assert link.faults is not None

    def test_injected_scene_skips_draws(self):
        sc = ScenarioConfig()
        scene = sc.build(rng=np.random.default_rng(1)).scene
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        built = sc.build(rng=rng, scene=scene)
        assert built.scene is scene
        assert rng.bit_generator.state == before
