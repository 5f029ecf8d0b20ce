"""Tests for JSON serialization of networks, schedules, and embeddings."""

import json

import pytest

from repro.embeddings import embed_star, embed_transposition_network
from repro.emulation import allport_schedule
from repro.io import (
    load_schedule,
    load_word_embedding,
    network_from_spec,
    network_spec,
    save_schedule,
    save_word_embedding,
    schedule_from_dict,
    schedule_to_dict,
    word_embedding_from_dict,
    word_embedding_to_dict,
)
from repro.networks import InsertionSelection, MacroStar, make_network


class TestNetworkSpec:
    def test_round_trip_ms(self):
        net = MacroStar(3, 2)
        rebuilt = network_from_spec(network_spec(net))
        assert rebuilt.name == net.name
        assert rebuilt.generators.names() == net.generators.names()

    def test_round_trip_is(self):
        net = InsertionSelection(5)
        spec = network_spec(net)
        assert spec == {"family": "IS", "k": 5}
        assert network_from_spec(spec).name == "IS(5)"

    def test_spec_is_json_safe(self):
        spec = network_spec(make_network("complete-RIS", l=3, n=2))
        assert json.loads(json.dumps(spec)) == spec


class TestScheduleIo:
    def test_round_trip_dict(self):
        sched = allport_schedule(MacroStar(4, 3))
        loaded = schedule_from_dict(schedule_to_dict(sched))
        assert loaded.makespan == sched.makespan
        assert loaded.network.name == "MS(4,3)"
        assert len(loaded.entries) == len(sched.entries)

    def test_round_trip_file(self, tmp_path):
        sched = allport_schedule(MacroStar(2, 2))
        path = tmp_path / "schedule.json"
        save_schedule(sched, path)
        loaded = load_schedule(path)
        assert loaded.render_grid() == sched.render_grid()

    def test_load_validates(self):
        sched = allport_schedule(MacroStar(2, 2))
        data = schedule_to_dict(sched)
        data["entries"] = data["entries"][:-1]  # drop a transmission
        with pytest.raises(AssertionError):
            schedule_from_dict(data)


class TestWordEmbeddingIo:
    def test_star_embedding_round_trip(self, tmp_path):
        emb = embed_star(MacroStar(2, 2))
        path = tmp_path / "emb.json"
        save_word_embedding(emb, "star", path)
        loaded = load_word_embedding(path)
        loaded.validate()
        assert loaded.dilation() == 3
        assert loaded.words == emb.words

    def test_tn_embedding_round_trip(self):
        emb = embed_transposition_network(InsertionSelection(4))
        data = word_embedding_to_dict(emb, "tn")
        loaded = word_embedding_from_dict(data)
        loaded.validate()
        assert loaded.dilation() == emb.dilation()

    def test_unknown_guest_kind(self):
        emb = embed_star(MacroStar(2, 2))
        with pytest.raises(ValueError):
            word_embedding_to_dict(emb, "mesh")

    def test_payload_is_json_safe(self):
        emb = embed_star(InsertionSelection(4))
        payload = word_embedding_to_dict(emb, "star")
        assert json.loads(json.dumps(payload)) == payload
