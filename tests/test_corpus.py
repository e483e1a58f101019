import io
import json

import numpy as np
import pytest

from flowprover import nn
from flowprover.corpus import (
    ACHIEVABLE_PROOF_LENGTHS,
    MAX_PROOF_LEN,
    GenerationExhausted,
    Theorem,
    build_corpus,
    corpus_hash,
    filter_theorem,
    generate_theorem,
    load_split,
    save_split,
    theorem_from_json,
    theorem_to_json,
)
from flowprover.env import (
    ACTION_CHARS,
    ACTIONS,
    Tactic,
    TacticKind,
    initial_state,
    parse_tactic,
    replay,
    state_fingerprint,
)
from flowprover.formulas import And, Atom, Implies


class TestGenerateTheorem:
    def test_seeded_determinism(self):
        t1 = generate_theorem(np.random.default_rng(42), 2, name="x")
        t2 = generate_theorem(np.random.default_rng(42), 2, name="x")
        assert t1 == t2

    def test_replay_proves(self):
        rng = np.random.default_rng(5)
        for length in ACHIEVABLE_PROOF_LENGTHS:
            for _ in range(25):
                thm = generate_theorem(rng, length)
                assert replay(thm.initial_state, list(thm.gt_proof)).proved

    def test_target_len_contract(self):
        thm = generate_theorem(np.random.default_rng(0), 2)
        assert len(thm.gt_proof) == 2
        thm3 = generate_theorem(np.random.default_rng(0), 3)
        assert len(thm3.gt_proof) == 3

    def test_length_one_is_unachievable(self):
        # only `exact` discharges a goal and it needs a hypothesis, so no
        # single tactic can prove a hypothesis-free goal
        with pytest.raises(GenerationExhausted):
            generate_theorem(np.random.default_rng(1), 1)

    def test_length_above_the_longest_template_is_refused(self):
        with pytest.raises(ValueError, match="target_len"):
            generate_theorem(np.random.default_rng(1), MAX_PROOF_LEN + 1)

    def test_initial_state_is_bare_single_goal(self):
        thm = generate_theorem(np.random.default_rng(9), 3)
        assert len(thm.initial_state.goals) == 1
        assert thm.initial_state.goals[0].hyps == ()


class TestFilter:
    def _identity(self, formula) -> Theorem:
        return Theorem("t", initial_state(Implies(formula, formula)),
                       (parse_tactic("intro"), parse_tactic("exact h1")))

    def test_length_cap(self):
        thm = generate_theorem(np.random.default_rng(2), 2)
        long_proof = Theorem(thm.name, thm.initial_state, thm.gt_proof * 2)
        assert not filter_theorem(long_proof)

    def test_within_caps(self):
        assert filter_theorem(generate_theorem(np.random.default_rng(3), 3))

    def test_oversized_state_rejected(self):
        big = Atom("a")
        for _ in range(8):
            big = And(big, big)
        thm = self._identity(big)
        assert len(thm.initial_state.render()) > 1200
        assert not filter_theorem(thm)

    def test_no_tactic_needs_a_cap(self):
        # only the 36 actions can be made, and each prints in 4 to 11 chars
        made = set()
        for kind in TacticKind:
            for arg in (None, True, 1.0, "1", *range(-1, 11)):
                try:
                    made.add(Tactic(kind, arg))
                except ValueError:
                    pass
        assert sorted(t.render() for t in made) == sorted(t.render() for t in ACTIONS)
        assert (min(ACTION_CHARS), max(ACTION_CHARS)) == (4, 11)
        with pytest.raises(ValueError):
            Tactic("exact", 1)


class TestBuildCorpus:
    def test_sizes_and_balance(self, small_corpus):
        assert len(small_corpus.train) == 60
        assert len(small_corpus.valid) == 10
        for bucket in (small_corpus.train, small_corpus.valid):
            lengths = [len(t.gt_proof) for t in bucket]
            counts = {k: lengths.count(k) for k in ACHIEVABLE_PROOF_LENGTHS}
            assert max(counts.values()) - min(counts.values()) <= 1

    def test_split_disjointness(self, small_corpus):
        train_fps = {state_fingerprint(t.initial_state) for t in small_corpus.train}
        valid_fps = {state_fingerprint(t.initial_state) for t in small_corpus.valid}
        assert not (train_fps & valid_fps)
        assert not ({t.name for t in small_corpus.train} & {t.name for t in small_corpus.valid})

    def test_every_theorem_passes_filter(self, small_corpus):
        assert all(filter_theorem(t) for t in small_corpus.all_theorems())

    def test_deterministic_files(self, tmp_path):
        h1 = save_split(build_corpus(7, train_size=30, valid_size=6), tmp_path / "c1")
        h2 = save_split(build_corpus(7, train_size=30, valid_size=6), tmp_path / "c2")
        assert h1 == h2
        assert (tmp_path / "c1" / "train.jsonl").read_bytes() == \
            (tmp_path / "c2" / "train.jsonl").read_bytes()

    @pytest.mark.parametrize("seed,digest", [
        (1, "ec9b842ceb84adf7cb7dcea6c2a4866aaf83b9f954d93ee232685491e4493e9f"),
        (11, "d5bae7498755822da334ae2497a321bcfd6297e62389974990fb9093cdd41ed7"),
    ])
    def test_default_stream_is_pinned(self, seed, digest, tmp_path):
        # the default corpus's draws and bytes: a template row added later must not move them
        assert save_split(build_corpus(seed, 1000, 20), tmp_path) == digest

    def test_different_seeds_differ(self, tmp_path):
        h1 = save_split(build_corpus(7, train_size=10, valid_size=2), tmp_path / "a")
        h2 = save_split(build_corpus(8, train_size=10, valid_size=2), tmp_path / "b")
        assert h1 != h2


class TestSerialization:
    def test_json_round_trip(self, small_corpus):
        for thm in small_corpus.all_theorems()[:20]:
            again = theorem_from_json(theorem_to_json(thm))
            assert again == thm

    def test_json_schema(self, small_corpus):
        obj = json.loads(theorem_to_json(small_corpus.train[0]))
        assert set(obj) == {"name", "goal", "gt_proof"}
        assert isinstance(obj["goal"], str)
        assert all(isinstance(t, str) for t in obj["gt_proof"])

    def test_save_load_round_trip(self, small_corpus, tmp_path):
        digest = save_split(small_corpus, tmp_path)
        loaded = load_split(tmp_path)
        assert loaded.train == small_corpus.train
        assert loaded.valid == small_corpus.valid
        assert corpus_hash(tmp_path) == digest
        assert (tmp_path / "corpus.hash").read_text().strip() == digest

    def test_files_sorted_by_name(self, small_corpus, tmp_path):
        save_split(small_corpus, tmp_path)
        names = [json.loads(l)["name"] for l in (tmp_path / "train.jsonl").read_text().splitlines()]
        assert names == sorted(names)

    def test_failed_write_keeps_the_earlier_files(self, small_corpus, tmp_path, monkeypatch):
        save_split(small_corpus, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        class FailingFile(io.FileIO):
            def write(self, data):
                super().write(data[:7])
                raise OSError("disk full")

        monkeypatch.setattr(nn, "open", FailingFile, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_split(build_corpus(4, train_size=10, valid_size=2), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
