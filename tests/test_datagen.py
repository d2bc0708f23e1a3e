import json
import tracemalloc

import numpy as np
import pytest

from helpers import reference_draw_concepts, reference_render

from dualmoco import cli, datagen
from dualmoco.datagen import (
    gen_mining_corpus,
    gen_nli_triples,
    gen_parallel_corpus,
    gen_sts_pairs,
    load_mining_json,
    load_nli_tsv,
    load_sts_tsv,
    load_tsv,
    make_lexicon,
    nli_label,
    save_mining_json,
    save_nli_tsv,
    save_sts_tsv,
    save_tsv,
)
from dualmoco.errors import ConfigError, CorpusParseError, EmptyCorpusError


@pytest.fixture(scope="module")
def lexicon():
    return make_lexicon(concept_count=60, noise_count=8, seed=0)


def recover_concepts(tokens, surface, noise):
    """Invert a surface map, dropping function tokens."""
    inverse = {int(t): c for c, t in enumerate(surface)}
    noise_set = {int(t) for t in noise}
    out = []
    for t in tokens:
        if t in noise_set:
            continue
        out.append(inverse[t])
    return out


class TestLexicon:
    def test_bijective_surface_maps(self, lexicon):
        assert len(set(lexicon.surface_a.tolist())) == lexicon.concept_count
        assert len(set(lexicon.surface_b.tolist())) == lexicon.concept_count

    def test_noise_disjoint_from_concepts(self, lexicon):
        assert not set(lexicon.surface_a.tolist()) & set(lexicon.noise_a.tolist())
        assert not set(lexicon.surface_b.tolist()) & set(lexicon.noise_b.tolist())

    def test_vocab_sizes(self, lexicon):
        assert lexicon.vocab_size == 68
        assert len(lexicon.noise_a) == len(lexicon.noise_b)

    def test_all_token_ids_in_range(self, lexicon):
        for ids in (lexicon.surface_a, lexicon.noise_a, lexicon.surface_b, lexicon.noise_b):
            assert ids.min() >= 0 and ids.max() < lexicon.vocab_size


class TestGenParallelCorpus:
    def test_same_seed_byte_identical(self, lexicon, tmp_path):
        c1 = gen_parallel_corpus(lexicon, 40, 10, 10, seed=5)
        c2 = gen_parallel_corpus(lexicon, 40, 10, 10, seed=5)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_tsv(c1, str(p1))
        save_tsv(c2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self, lexicon):
        c1 = gen_parallel_corpus(lexicon, 40, 0, 0, seed=5)
        c2 = gen_parallel_corpus(lexicon, 40, 0, 0, seed=6)
        assert [p.tokens_a for p in c1.pairs] != [p.tokens_a for p in c2.pairs]

    def test_pair_sides_share_concept_multiset(self, lexicon):
        corpus = gen_parallel_corpus(lexicon, 50, 0, 0, seed=7)
        for p in corpus.pairs:
            got_a = recover_concepts(p.tokens_a, lexicon.surface_a, lexicon.noise_a)
            got_b = recover_concepts(p.tokens_b, lexicon.surface_b, lexicon.noise_b)
            assert sorted(got_a) == sorted(got_b) == sorted(p.concepts)

    def test_reversed_word_order_on_side_b(self, lexicon):
        corpus = gen_parallel_corpus(lexicon, 20, 0, 0, noise_rate=0.0, seed=8)
        for p in corpus.pairs:
            got_b = recover_concepts(p.tokens_b, lexicon.surface_b, lexicon.noise_b)
            assert tuple(got_b) == p.concepts[::-1]

    def test_no_noise_identity_reorder_equal_lengths(self, lexicon):
        corpus = gen_parallel_corpus(
            lexicon, 30, 0, 0, noise_rate=0.0, seed=9, reorder_b="identity"
        )
        for p in corpus.pairs:
            assert len(p.tokens_a) == len(p.tokens_b)
            got_b = recover_concepts(p.tokens_b, lexicon.surface_b, lexicon.noise_b)
            assert tuple(got_b) == p.concepts

    def test_split_sizes_and_tags(self, lexicon):
        corpus = gen_parallel_corpus(lexicon, 12, 5, 7, seed=10)
        assert len(corpus.split("train")) == 12
        assert len(corpus.split("validation")) == 5
        assert len(corpus.split("test")) == 7

    def test_split_hygiene_hash_audit(self, lexicon):
        corpus = gen_parallel_corpus(lexicon, 40, 20, 20, seed=11)
        per_split = {
            name: {hash(tuple(p.concepts)) for p in corpus.split(name)}
            for name in ("train", "validation", "test")
        }
        assert not per_split["train"] & per_split["validation"]
        assert not per_split["train"] & per_split["test"]
        assert not per_split["validation"] & per_split["test"]

    def test_separability_gold_is_unique_jaccard_max(self, lexicon):
        # brute-force audit: each side-A sentence's highest concept-Jaccard
        # match on side B is its own partner, uniquely
        corpus = gen_parallel_corpus(lexicon, 60, 0, 0, seed=12)
        sets = [set(p.concepts) for p in corpus.pairs]
        for i, si in enumerate(sets):
            jac = [len(si & sj) / len(si | sj) for sj in sets]
            best = max(range(len(sets)), key=lambda j: jac[j])
            assert best == i
            assert sum(1 for j in jac if j == jac[i]) == 1

    def test_length_range_enforced(self, lexicon):
        corpus = gen_parallel_corpus(lexicon, 40, 0, 0, len_range=(4, 6), noise_rate=0.0, seed=13)
        for p in corpus.pairs:
            assert 4 <= len(p.concepts) <= 6
            assert len(p.tokens_a) == len(p.concepts)

    def test_validation(self, lexicon):
        with pytest.raises(ConfigError):
            gen_parallel_corpus(lexicon, 0, 0, 0)
        with pytest.raises(ConfigError):
            gen_parallel_corpus(lexicon, 5, 0, 0, len_range=(1, 5))
        with pytest.raises(ConfigError):
            gen_parallel_corpus(lexicon, 5, 0, 0, noise_rate=1.5)
        with pytest.raises(ConfigError):
            gen_parallel_corpus(lexicon, 5, 0, 0, reorder_b="shuffle")


class TestGenMiningCorpus:
    def test_gold_count_exact(self, lexicon):
        mining = gen_mining_corpus(lexicon, 50, 40, 0.2, seed=14)
        assert len(mining.gold_pairs) == int(0.2 * 40)
        assert len(mining.side_a) == 50 and len(mining.side_b) == 40

    def test_gold_pairs_share_concepts(self, lexicon):
        mining = gen_mining_corpus(lexicon, 40, 40, 0.15, seed=15)
        for i, j in mining.gold_pairs:
            got_a = recover_concepts(mining.side_a[i], lexicon.surface_a, lexicon.noise_a)
            got_b = recover_concepts(mining.side_b[j], lexicon.surface_b, lexicon.noise_b)
            assert sorted(got_a) == sorted(got_b)

    def test_non_gold_overlap_below_half(self, lexicon):
        # direct concept-overlap scan over every cross pair
        mining = gen_mining_corpus(lexicon, 30, 30, 0.2, seed=16)
        gold = set(mining.gold_pairs)
        sets_a = [
            set(recover_concepts(s, lexicon.surface_a, lexicon.noise_a)) for s in mining.side_a
        ]
        sets_b = [
            set(recover_concepts(s, lexicon.surface_b, lexicon.noise_b)) for s in mining.side_b
        ]
        for i, sa in enumerate(sets_a):
            for j, sb in enumerate(sets_b):
                if (i, j) in gold:
                    assert sa == sb
                else:
                    assert len(sa & sb) / len(sa | sb) < 0.5

    def test_parallel_fraction_validated(self, lexicon):
        with pytest.raises(ConfigError):
            gen_mining_corpus(lexicon, 10, 10, 0.0)
        with pytest.raises(ConfigError):
            gen_mining_corpus(lexicon, 10, 10, 1.0)

    @pytest.mark.parametrize("n_a, n_b, fraction", [(5, 400, 0.1), (400, 9, 0.1), (3, 3, 0.2), (0, 10, 0.5)])
    def test_no_gold_pair_refused(self, lexicon, n_a, n_b, fraction):
        # a corpus without gold pairs leaves mining's threshold search nothing to tune on
        with pytest.raises(ConfigError, match="gives no gold pair"):
            gen_mining_corpus(lexicon, n_a, n_b, fraction)

    def test_deterministic(self, lexicon):
        m1 = gen_mining_corpus(lexicon, 20, 20, 0.2, seed=17)
        m2 = gen_mining_corpus(lexicon, 20, 20, 0.2, seed=17)
        assert m1.side_a == m2.side_a and m1.gold_pairs == m2.gold_pairs


def all_pairs_acceptable(self, cand):
    """The all-pairs `_ConceptSampler._acceptable` scan, kept as the reference
    for the whole-array one."""
    if self.max_overlap >= 1.0:
        return cand not in self._seen_lookup
    return all(len(cand & s) / len(cand | s) < self.max_overlap for s in self.seen)


def all_pairs_audit(sets_a, sets_b, pos_a, pos_b, gold):
    """The all-pairs `_audit_overlap` scan, kept as the reference for the
    blocked whole-array one."""
    placed_a = {int(pos_a[i]): s for i, s in enumerate(sets_a)}
    placed_b = {int(pos_b[j]): s for j, s in enumerate(sets_b)}
    for i, sa in placed_a.items():
        for j, sb in placed_b.items():
            if (i, j) in gold:
                continue
            if len(sa & sb) / len(sa | sb) >= 0.5:
                raise ConfigError(
                    f"generation audit failed: non-gold pair ({i}, {j}) shares >= 50% of concepts"
                )


class TestConceptIndex:
    @pytest.mark.parametrize(
        "seed, n, len_range",
        [(3, 120, (3, 10)), (11, 120, (3, 10)), (5, 300, (3, 4)), (6, 300, (3, 4))],
    )
    def test_sampler_matches_all_pairs_scan(self, lexicon, monkeypatch, seed, n, len_range):
        indexed = gen_mining_corpus(lexicon, n, n, 0.1, seed=seed, len_range=len_range)
        verdicts = []

        def reference(self, cand):
            verdicts.append(all_pairs_acceptable(self, cand))
            return verdicts[-1]

        monkeypatch.setattr(datagen._ConceptSampler, "_acceptable", reference)
        scanned = gen_mining_corpus(lexicon, n, n, 0.1, seed=seed, len_range=len_range)
        assert indexed.side_a == scanned.side_a
        assert indexed.side_b == scanned.side_b
        assert indexed.gold_pairs == scanned.gold_pairs
        if len_range == (3, 4):
            # on 60 concepts, a large share of short draws overlaps a seen set
            assert verdicts.count(False) > 0.3 * len(verdicts)

    @pytest.mark.parametrize("max_overlap", [0.3, 1 / 3, 0.6, 0.75, 0.999])
    def test_sampler_thresholds_match_all_pairs_scan(self, monkeypatch, max_overlap):
        # 12 concepts: every threshold rejects, and the low ones run out
        small = make_lexicon(concept_count=12, noise_count=4, seed=0)

        def draws():
            rng = np.random.default_rng(7)
            sampler = datagen._ConceptSampler(small, rng, max_overlap=max_overlap)
            out = []
            try:
                while len(out) < 60:
                    out.append(sampler.draw(int(rng.integers(3, 6))))
            except ConfigError as e:
                out.append(str(e))
            return out, rng.random()

        verdicts = []

        def reference(self, cand):
            verdicts.append(all_pairs_acceptable(self, cand))
            return verdicts[-1]

        indexed = draws()
        monkeypatch.setattr(datagen._ConceptSampler, "_acceptable", reference)
        assert draws() == indexed
        assert verdicts.count(False) > 0

    def test_max_overlap_must_be_positive(self, lexicon):
        with pytest.raises(ConfigError, match="max_overlap"):
            datagen._ConceptSampler(lexicon, np.random.default_rng(0), max_overlap=0.0)

    def test_audit_rejects_half_overlap(self):
        with pytest.raises(ConfigError, match=r"non-gold pair \(0, 0\)"):
            datagen._audit_overlap(
                [frozenset({1, 2, 3})], [frozenset({1, 2, 4})], np.array([0]), np.array([0]), set()
            )

    def test_audit_exempts_gold_and_passes_below_half(self):
        datagen._audit_overlap(
            [frozenset({1, 2, 3})], [frozenset({1, 2, 4})], np.array([0]), np.array([0]), {(0, 0)}
        )
        datagen._audit_overlap(
            [frozenset({1, 2, 3})], [frozenset({1, 2, 4, 5})], np.array([0]), np.array([0]), set()
        )

    def test_audit_matches_all_pairs_scan(self):
        # dense overlaps on 8 concepts, so most cases fail, often at several pairs
        rng = np.random.default_rng(0)

        def random_sets():
            return [
                frozenset(int(c) for c in rng.choice(8, size=rng.integers(1, 5), replace=False))
                for _ in range(rng.integers(1, 7))
            ]

        outcomes = set()
        for _ in range(300):
            sets_a, sets_b = random_sets(), random_sets()
            pos_a, pos_b = rng.permutation(len(sets_a)), rng.permutation(len(sets_b))
            gold = {(int(i), int(j)) for i, j in zip(pos_a, pos_b) if rng.random() < 0.5}
            results = []
            for audit in (datagen._audit_overlap, all_pairs_audit):
                try:
                    audit(sets_a, sets_b, pos_a, pos_b, gold)
                    results.append(None)
                except ConfigError as e:
                    results.append(str(e))
            assert results[0] == results[1]
            outcomes.add(results[0] is None)
        assert outcomes == {True, False}


class TestMatchesPerPairReferences:
    """gen-data with the per-token draws and rendering and the all-pairs
    overlap scans patched in writes the same bytes as the array code."""

    @pytest.mark.parametrize(
        "extra",
        [
            (),
            ("--concepts", "120", "--len-max", "4", "--seed", "3"),
            ("--noise-rate", "0", "--reorder-b", "identity", "--seed", "4"),
        ],
    )
    def test_gen_data_byte_identical(self, tmp_path, monkeypatch, extra):
        args = [
            "--train-pairs", "150", "--val-pairs", "30", "--test-pairs", "30",
            "--sts-pairs", "60", "--nli-triples", "60",
            "--mining-side-a", "90", "--mining-side-b", "70", *extra,
        ]
        assert cli.main(["gen-data", "--out", str(tmp_path / "new"), *args]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(datagen, "_draw_concepts", reference_draw_concepts)
            patch.setattr(datagen, "_render", reference_render)
            patch.setattr(datagen._ConceptSampler, "_acceptable", all_pairs_acceptable)
            patch.setattr(datagen, "_audit_overlap", all_pairs_audit)
            assert cli.main(["gen-data", "--out", str(tmp_path / "ref"), *args]) == 0
        names = sorted(p.name for p in (tmp_path / "new").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "ref").iterdir())
        for name in names:
            new, ref = (tmp_path / side / name for side in ("new", "ref"))
            if name == cli.GEN_CONFIG_FILE:
                configs = [json.loads(p.read_text()) for p in (new, ref)]
                assert [c.pop("out_dir") for c in configs] == [str(new.parent), str(ref.parent)]
                assert configs[0] == configs[1]
            else:
                assert new.read_bytes() == ref.read_bytes(), name

    def test_audit_memory_bounded(self, monkeypatch):
        # 1,000 sets per side; a dense cross matrix of 2-byte counts would
        # alone take n_a * n_b * 2 bytes
        calls = []
        monkeypatch.setattr(datagen, "_audit_overlap", lambda *args: calls.append(args))
        lexicon = make_lexicon(380, 20, seed=1)
        gen_mining_corpus(lexicon, 1000, 1000, 0.1, seed=5)
        monkeypatch.undo()
        (args,) = calls
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            datagen._audit_overlap(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 1000 * 1000 * 2


class TestGenStsPairs:
    def test_identical_sets_score_one(self):
        lexicon = make_lexicon(40, 4, seed=1)
        pairs = gen_sts_pairs(lexicon, 200, seed=18)
        perfect = [p for p in pairs if p.gold_sim == 1.0]
        assert perfect, "sampler should occasionally draw full overlap"

    def test_gold_is_jaccard_of_recovered_concepts(self, lexicon):
        pairs = gen_sts_pairs(lexicon, 100, seed=19)
        for p in pairs:
            c1 = set(recover_concepts(p.tokens_1, lexicon.surface_a, lexicon.noise_a))
            c2 = set(recover_concepts(p.tokens_2, lexicon.surface_a, lexicon.noise_a))
            assert p.gold_sim == pytest.approx(len(c1 & c2) / len(c1 | c2), abs=1e-12)

    def test_gold_spans_both_extremes(self, lexicon):
        pairs = gen_sts_pairs(lexicon, 300, seed=20)
        golds = [p.gold_sim for p in pairs]
        assert min(golds) == 0.0 and max(golds) == 1.0
        assert len({round(g, 6) for g in golds}) > 5


class TestGenNliTriples:
    def test_labels_match_rule(self, lexicon):
        triples = gen_nli_triples(lexicon, 120, seed=21)
        for t in triples:
            prem = recover_concepts(t.premise, lexicon.surface_a, lexicon.noise_a)
            hyp = recover_concepts(t.hypothesis, lexicon.surface_a, lexicon.noise_a)
            assert nli_label(prem, hyp) == t.label

    def test_roughly_balanced(self, lexicon):
        triples = gen_nli_triples(lexicon, 120, seed=22)
        counts = {label: 0 for label in datagen.NLI_LABELS}
        for t in triples:
            counts[t.label] += 1
        assert all(c == 40 for c in counts.values())

    def test_rule_definition(self):
        assert nli_label((1, 2, 3), (1, 2)) == "entailment"
        assert nli_label((1, 2, 3), (4, 5)) == "contradiction"
        assert nli_label((1, 2, 3), (1, 5)) == "neutral"
        assert nli_label((1, 2), (1, 2, 3)) == "neutral"  # superset is not entailment
        assert nli_label((1, 2), (1, 2)) == "neutral"  # equality is not strict subset


class TestFileRoundTrips:
    def test_parallel_round_trip(self, lexicon, tmp_path):
        corpus = gen_parallel_corpus(lexicon, 25, 5, 5, seed=23)
        path = tmp_path / "corpus.tsv"
        save_tsv(corpus, str(path))
        assert load_tsv(str(path)) == corpus

    def test_sts_round_trip(self, lexicon, tmp_path):
        pairs = gen_sts_pairs(lexicon, 30, seed=24)
        path = tmp_path / "sts.tsv"
        save_sts_tsv(pairs, str(path))
        assert load_sts_tsv(str(path)) == pairs

    def test_nli_round_trip(self, lexicon, tmp_path):
        triples = gen_nli_triples(lexicon, 30, seed=25)
        path = tmp_path / "nli.tsv"
        save_nli_tsv(triples, str(path))
        assert load_nli_tsv(str(path)) == triples

    def test_mining_round_trip(self, lexicon, tmp_path):
        mining = gen_mining_corpus(lexicon, 20, 20, 0.2, seed=26)
        path = tmp_path / "mining.json"
        save_mining_json(mining, str(path))
        assert load_mining_json(str(path)) == mining

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(EmptyCorpusError):
            load_tsv(str(path))

    def test_wrong_column_count_cites_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        good = "1 2\t3 4\t5 6\ttrain"
        path.write_text("\n".join([good] * 6 + ["1 2\t3 4\ttrain"]) + "\n")
        with pytest.raises(CorpusParseError, match=r":7:"):
            load_tsv(str(path))

    @pytest.mark.parametrize(
        "field",
        ["1 x", "1_0", "+7", "\u0663", "\uff10", "-3", "1  2"],
        ids=["letter", "underscore", "plus", "arabic-indic", "fullwidth", "negative", "two-spaces"],
    )
    def test_non_integer_token_cites_line(self, tmp_path, field):
        # only ASCII digits separated by single spaces, as save_tsv writes
        # them; int() alone reads all but the first and last of these
        path = tmp_path / "bad.tsv"
        path.write_text(f"{field}\t3\t5\ttrain\n", encoding="utf-8")
        with pytest.raises(CorpusParseError, match=r":1:"):
            load_tsv(str(path))

    def test_unknown_split_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2\t3\tdev\n")
        with pytest.raises(CorpusParseError, match="split"):
            load_tsv(str(path))

    @pytest.mark.parametrize("gold", ["nan", "-7.5", "inf", "-inf", "1.0000001", "-0.001"])
    def test_sts_gold_outside_unit_interval_cites_line(self, tmp_path, gold):
        path = tmp_path / "sts.tsv"
        path.write_text(f"1 2\t3 4\t0.5\n1 2\t3 4\t{gold}\n")
        with pytest.raises(CorpusParseError, match=rf"sts.tsv:2: gold similarity '{gold}' outside"):
            load_sts_tsv(str(path))

    def test_sts_gold_endpoints_accepted(self, tmp_path):
        path = tmp_path / "sts.tsv"
        path.write_text("1 2\t3 4\t0.0\n1 2\t3 4\t1.0\n1\t2\t-0.0\n")
        assert [p.gold_sim for p in load_sts_tsv(str(path))] == [0.0, 1.0, 0.0]

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2\tmaybe\n")
        with pytest.raises(CorpusParseError, match="label"):
            load_nli_tsv(str(path))

    def test_malformed_mining_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CorpusParseError):
            load_mining_json(str(path))
        path.write_text('{"side_a": []}')
        with pytest.raises(CorpusParseError):
            load_mining_json(str(path))

    @pytest.fixture
    def mining_doc(self):
        return {
            "side_a": [[1, 2, 3], [4, 5], [6]],
            "side_b": [[7, 8], [9, 10, 11]],
            "gold_pairs": [[0, 1], [2, 0]],
            "parallel_fraction": 0.5,
        }

    def load_doc(self, tmp_path, doc):
        path = tmp_path / "mining.json"
        path.write_text(json.dumps(doc))
        return load_mining_json(str(path))

    def test_mining_json_well_formed_loads(self, tmp_path, mining_doc):
        corpus = self.load_doc(tmp_path, mining_doc)
        assert corpus.side_a == [(1, 2, 3), (4, 5), (6,)]
        assert corpus.gold_pairs == [(0, 1), (2, 0)]

    @pytest.mark.parametrize(
        "side, sentence, token, item",
        [
            ("side_a", 0, 1.9, r"side_a\[0\] token 1.9 "),
            ("side_b", 1, True, r"side_b\[1\] token True "),
            ("side_a", 2, "7", r"side_a\[2\] token '7' "),
            ("side_b", 0, None, r"side_b\[0\] token None "),
            ("side_a", 1, [4], r"side_a\[1\] token \[4\] "),
        ],
    )
    def test_mining_json_non_integer_token_rejected(
        self, tmp_path, mining_doc, side, sentence, token, item
    ):
        mining_doc[side][sentence][-1] = token
        with pytest.raises(CorpusParseError, match=r"mining\.json: " + item):
            self.load_doc(tmp_path, mining_doc)

    @pytest.mark.parametrize("sentence", [[], "123", 5, {"1": 2}])
    def test_mining_json_bad_sentence_rejected(self, tmp_path, mining_doc, sentence):
        mining_doc["side_b"][1] = sentence
        with pytest.raises(CorpusParseError, match=r"mining\.json: side_b\[1\] must be a non-empty list"):
            self.load_doc(tmp_path, mining_doc)

    def test_mining_json_side_not_a_list_rejected(self, tmp_path, mining_doc):
        mining_doc["side_a"] = "1 2 3"
        with pytest.raises(CorpusParseError, match=r"mining\.json: side_a must be a list"):
            self.load_doc(tmp_path, mining_doc)

    @pytest.mark.parametrize("side", ["side_a", "side_b"])
    def test_mining_json_empty_side_rejected(self, tmp_path, mining_doc, side):
        mining_doc[side] = []
        mining_doc["gold_pairs"] = []
        with pytest.raises(CorpusParseError, match=rf"mining\.json: {side} holds no sentences"):
            self.load_doc(tmp_path, mining_doc)

    @pytest.mark.parametrize(
        "pair",
        [[3, 0], [0, 2], [-1, 0], [0, -1], [4000, 4000], [0], [0, 1, 1], [True, 0], [0, 1.0], "01"],
    )
    def test_mining_json_bad_gold_pair_rejected(self, tmp_path, mining_doc, pair):
        mining_doc["gold_pairs"].append(pair)
        with pytest.raises(CorpusParseError, match=r"mining\.json: gold_pairs\[2\] "):
            self.load_doc(tmp_path, mining_doc)

    def test_lf_line_endings(self, lexicon, tmp_path):
        corpus = gen_parallel_corpus(lexicon, 5, 0, 0, seed=27)
        path = tmp_path / "corpus.tsv"
        save_tsv(corpus, str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
