import json
import tracemalloc

import numpy as np
import pytest

from helpers import columns, corpus_rows, reference_draw_concepts, reference_render, sequences

from dualmoco import cli, datagen
from dualmoco.datagen import (
    NLI_LABELS,
    MiningCorpus,
    NliTriples,
    StsPairs,
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
from dualmoco.encoder import encode_batch, init_params, pack_tokens
from dualmoco.errors import ConfigError, CorpusParseError, InvalidInputError


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
        assert sequences(c1.tokens_a) != sequences(c2.tokens_a)

    def test_pair_sides_share_concept_multiset(self, lexicon):
        corpus = gen_parallel_corpus(lexicon, 50, 0, 0, seed=7)
        for tokens_a, tokens_b, concepts, _ in corpus_rows(corpus):
            got_a = recover_concepts(tokens_a, lexicon.surface_a, lexicon.noise_a)
            got_b = recover_concepts(tokens_b, lexicon.surface_b, lexicon.noise_b)
            assert sorted(got_a) == sorted(got_b) == sorted(concepts)

    def test_reversed_word_order_on_side_b(self, lexicon):
        corpus = gen_parallel_corpus(lexicon, 20, 0, 0, noise_rate=0.0, seed=8)
        for _, tokens_b, concepts, _ in corpus_rows(corpus):
            got_b = recover_concepts(tokens_b, lexicon.surface_b, lexicon.noise_b)
            assert tuple(got_b) == concepts[::-1]

    def test_no_noise_identity_reorder_equal_lengths(self, lexicon):
        corpus = gen_parallel_corpus(
            lexicon, 30, 0, 0, noise_rate=0.0, seed=9, reorder_b="identity"
        )
        for tokens_a, tokens_b, concepts, _ in corpus_rows(corpus):
            assert len(tokens_a) == len(tokens_b)
            got_b = recover_concepts(tokens_b, lexicon.surface_b, lexicon.noise_b)
            assert tuple(got_b) == concepts

    def test_split_sizes_and_tags(self, lexicon):
        corpus = gen_parallel_corpus(lexicon, 12, 5, 7, seed=10)
        assert len(corpus.split("train")) == 12
        assert len(corpus.split("validation")) == 5
        assert len(corpus.split("test")) == 7

    def test_split_hygiene_hash_audit(self, lexicon):
        corpus = gen_parallel_corpus(lexicon, 40, 20, 20, seed=11)
        per_split = {
            name: {hash(concepts) for concepts in sequences(corpus.concepts, corpus.split(name))}
            for name in ("train", "validation", "test")
        }
        assert not per_split["train"] & per_split["validation"]
        assert not per_split["train"] & per_split["test"]
        assert not per_split["validation"] & per_split["test"]

    def test_separability_gold_is_unique_jaccard_max(self, lexicon):
        # brute-force audit: each side-A sentence's highest concept-Jaccard
        # match on side B is its own partner, uniquely
        corpus = gen_parallel_corpus(lexicon, 60, 0, 0, seed=12)
        sets = [set(concepts) for concepts in sequences(corpus.concepts)]
        for i, si in enumerate(sets):
            jac = [len(si & sj) / len(si | sj) for sj in sets]
            best = max(range(len(sets)), key=lambda j: jac[j])
            assert best == i
            assert sum(1 for j in jac if j == jac[i]) == 1

    def test_length_range_enforced(self, lexicon):
        corpus = gen_parallel_corpus(lexicon, 40, 0, 0, len_range=(4, 6), noise_rate=0.0, seed=13)
        for tokens_a, _, concepts, _ in corpus_rows(corpus):
            assert 4 <= len(concepts) <= 6
            assert len(tokens_a) == len(concepts)

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
        side_a, side_b = sequences(mining.side_a), sequences(mining.side_b)
        for i, j in mining.gold_pairs:
            got_a = recover_concepts(side_a[i], lexicon.surface_a, lexicon.noise_a)
            got_b = recover_concepts(side_b[j], lexicon.surface_b, lexicon.noise_b)
            assert sorted(got_a) == sorted(got_b)

    def test_non_gold_overlap_below_half(self, lexicon):
        # direct concept-overlap scan over every cross pair
        mining = gen_mining_corpus(lexicon, 30, 30, 0.2, seed=16)
        gold = set(mining.gold_pairs)
        sets_a = [
            set(recover_concepts(s, lexicon.surface_a, lexicon.noise_a)) for s in sequences(mining.side_a)
        ]
        sets_b = [
            set(recover_concepts(s, lexicon.surface_b, lexicon.noise_b)) for s in sequences(mining.side_b)
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
        assert sequences(m1.side_a) == sequences(m2.side_a) and m1.gold_pairs == m2.gold_pairs


def all_pairs_acceptable(self, cand):
    """The all-pairs `_ConceptSampler._acceptable` scan, kept as the reference
    for the whole-array one."""
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
        assert sequences(indexed.side_a) == sequences(scanned.side_a)
        assert sequences(indexed.side_b) == sequences(scanned.side_b)
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

    def test_duplicate_sampler_runs_out_after_every_distinct_set(self):
        # 4 concepts hold 4 sets of 3, each drawn in any of 6 orders
        small = make_lexicon(concept_count=4, noise_count=1, seed=0)
        sampler = datagen._ConceptSampler(small, np.random.default_rng(3))
        drawn = [sampler.draw(3) for _ in range(4)]
        every_set = {frozenset(s) for s in ({0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3})}
        assert {frozenset(seq) for seq in drawn} == every_set
        with pytest.raises(ConfigError, match="could not sample a sufficiently distinct concept sequence"):
            sampler.draw(3)
        assert sampler.seen == []  # sets are kept only for the mining audit

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


def traced_peak(fn):
    """fn()'s result and the peak bytes it allocated under tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


class TestParallelCorpusMemory:
    """The seed-1 default corpus of gen-data: 6,500 pairs, a 0.54 MB file.
    As objects, a tuple per field and a set per pair, it took 7.5 MB to
    generate and 7.2 MB to load."""

    def test_generation_peak(self):
        lexicon = make_lexicon(380, 20, seed=1)
        corpus, peak = traced_peak(lambda: gen_parallel_corpus(lexicon, seed=2))
        assert len(corpus) == 6500
        assert peak < 5_000_000

    def test_load_peak(self, tmp_path):
        assert cli.main(["gen-data", "--seed", "1", "--out", str(tmp_path)]) == 0
        corpus, peak = traced_peak(lambda: load_tsv(str(tmp_path / "parallel.tsv")))
        assert len(corpus) == 6500
        assert peak < 4_000_000


class TestGenStsPairs:
    def test_identical_sets_score_one(self):
        lexicon = make_lexicon(40, 4, seed=1)
        pairs = gen_sts_pairs(lexicon, 200, seed=18)
        perfect = [g for g in pairs.gold.tolist() if g == 1.0]
        assert perfect, "sampler should occasionally draw full overlap"

    def test_gold_is_jaccard_of_recovered_concepts(self, lexicon):
        pairs = gen_sts_pairs(lexicon, 100, seed=19)
        assert len(pairs) == 100 and pairs.gold.dtype == np.float64
        for tokens_1, tokens_2, gold in zip(sequences(pairs.tokens_1), sequences(pairs.tokens_2), pairs.gold.tolist()):
            c1 = set(recover_concepts(tokens_1, lexicon.surface_a, lexicon.noise_a))
            c2 = set(recover_concepts(tokens_2, lexicon.surface_a, lexicon.noise_a))
            assert gold == pytest.approx(len(c1 & c2) / len(c1 | c2), abs=1e-12)

    def test_gold_spans_both_extremes(self, lexicon):
        pairs = gen_sts_pairs(lexicon, 300, seed=20)
        golds = pairs.gold.tolist()
        assert min(golds) == 0.0 and max(golds) == 1.0
        assert len({round(g, 6) for g in golds}) > 5


class TestGenNliTriples:
    def test_labels_match_rule(self, lexicon):
        # above 128 triples, where a code column built in int8 arithmetic would wrap
        triples = gen_nli_triples(lexicon, 300, seed=21)
        assert len(triples) == 300 and triples.labels.dtype == np.int8
        for premise, hypothesis, code in zip(
            sequences(triples.premises), sequences(triples.hypotheses), triples.labels.tolist()
        ):
            prem = recover_concepts(premise, lexicon.surface_a, lexicon.noise_a)
            hyp = recover_concepts(hypothesis, lexicon.surface_a, lexicon.noise_a)
            assert nli_label(prem, hyp) == NLI_LABELS[code]

    def test_roughly_balanced(self, lexicon):
        triples = gen_nli_triples(lexicon, 300, seed=22)
        counts = {label: 0 for label in datagen.NLI_LABELS}
        for code in triples.labels.tolist():
            counts[NLI_LABELS[code]] += 1
        assert all(c == 100 for c in counts.values())

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
        loaded = load_tsv(str(path))
        assert corpus_rows(loaded) == corpus_rows(corpus)
        for column in ("tokens_a", "tokens_b", "concepts"):
            for name in ("ids", "lengths", "starts"):
                got, want = (getattr(getattr(c, column), name) for c in (loaded, corpus))
                assert got.dtype == want.dtype == np.int32
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(loaded.split_codes, corpus.split_codes)

    def test_sts_round_trip(self, lexicon, tmp_path):
        pairs = gen_sts_pairs(lexicon, 30, seed=24)
        path = tmp_path / "sts.tsv"
        save_sts_tsv(pairs, str(path))
        assert columns(load_sts_tsv(str(path))) == columns(pairs)

    def test_nli_round_trip(self, lexicon, tmp_path):
        triples = gen_nli_triples(lexicon, 30, seed=25)
        path = tmp_path / "nli.tsv"
        save_nli_tsv(triples, str(path))
        loaded = load_nli_tsv(str(path))
        assert columns(loaded) == columns(triples) and loaded.labels.dtype == np.int8

    def test_mining_round_trip(self, lexicon, tmp_path):
        mining = gen_mining_corpus(lexicon, 20, 20, 0.2, seed=26)
        path = tmp_path / "mining.json"
        save_mining_json(mining, str(path))
        assert columns(load_mining_json(str(path))) == columns(mining)

    def test_writers_lay_out_hand_built_records(self, tmp_path):
        # the layouts of the README's "File formats" section, byte for byte
        sts = StsPairs(pack_tokens([[1, 2], [30]]), pack_tokens([[4], [5, 60, 7]]), np.array([0.25, 1.0]))
        nli = NliTriples(pack_tokens([[1, 2], [3]]), pack_tokens([[4], [5, 6]]), np.array([2, 0], dtype=np.int8))
        mining = MiningCorpus(pack_tokens([[1, 2], [3]]), pack_tokens([[4], [5, 6, 7]]), [(1, 0)], 0.5)
        save_sts_tsv(sts, str(tmp_path / "sts.tsv"))
        save_nli_tsv(nli, str(tmp_path / "nli.tsv"))
        save_mining_json(mining, str(tmp_path / "mining.json"))
        assert (tmp_path / "sts.tsv").read_bytes() == b"1 2\t4\t0.25\n30\t5 60 7\t1.0\n"
        assert (tmp_path / "nli.tsv").read_bytes() == b"1 2\t4\tcontradiction\n3\t5 6\tentailment\n"
        assert (tmp_path / "mining.json").read_bytes() == (
            b'{"side_a": [[1, 2], [3]], "side_b": [[4], [5, 6, 7]], "gold_pairs": [[1, 0]], "parallel_fraction": 0.5}\n'
        )

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(CorpusParseError, match=r"empty\.tsv: no records"):
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

    @pytest.mark.parametrize(
        "line, bad, message",
        [
            (6, "1 2\t3 4\t5 x\ttest", r"non-integer token field '5 x'"),
            (3, " 1 2\t3 4\t5 6\ttrain", r"non-integer token field ' 1 2'"),
            (3, "1 2\t3 4 \t5 6\ttrain", r"non-integer token field '3 4 '"),
            (4, "1 2\t3  4\t5 6\ttrain", r"non-integer token field '3  4'"),
            (2, "1 2\t3 4\t5 \u0666\ttrain", r"non-integer token field '5 \u0666'"),
            (5, "1 +7\t3 4\t5 6\ttrain", r"non-integer token field '1 \+7'"),
            (1, "1_0\t3 4\t5 6\ttrain", r"non-integer token field '1_0'"),
            (4, "1 2\t\t5 6\ttrain", r"empty token field"),
            (3, "1 2\t3 4\t5 6\tdev", r"unknown split 'dev'"),
            (6, "1 2\t3 4\t5 6\ttest\textra", r"expected 4 columns, got 5"),
            (2, "1 2\t3 4\ttrain", r"expected 4 columns, got 3"),
        ],
        ids=[
            "last-line", "leading-space", "trailing-space", "doubled-space", "arabic-indic",
            "plus", "underscore", "empty-field", "unknown-split", "five-columns", "three-columns",
        ],
    )
    def test_fault_among_good_lines_cites_its_line(self, tmp_path, line, bad, message):
        # the whole-array pass refuses the file; the line walk names the line
        lines = ["1 2\t3 4\t5 6\ttrain"] * 6
        lines[line - 1] = bad
        path = tmp_path / "bad.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusParseError, match=rf"bad\.tsv:{line}: {message}"):
            load_tsv(str(path))

    def test_line_walk_reads_records_the_array_pass_refuses(self, lexicon, tmp_path):
        # CRLF line ends, blank lines and no final LF are read as the records
        corpus = gen_parallel_corpus(lexicon, 6, 2, 2, seed=28)
        path = tmp_path / "corpus.tsv"
        save_tsv(corpus, str(path))
        lines = path.read_bytes().split(b"\n")[:-1]
        path.write_bytes(b"\n\n" + b"\r\n".join(lines[:4]) + b"\n\n\n" + b"\n".join(lines[4:]))
        assert corpus_rows(load_tsv(str(path))) == corpus_rows(corpus)

    def test_pairs_loaders_read_crlf_and_blank_lines(self, lexicon, tmp_path):
        for save, load, data in (
            (save_sts_tsv, load_sts_tsv, gen_sts_pairs(lexicon, 6, seed=29)),
            (save_nli_tsv, load_nli_tsv, gen_nli_triples(lexicon, 6, seed=30)),
        ):
            path = tmp_path / "pairs.tsv"
            save(data, str(path))
            lines = path.read_bytes().split(b"\n")[:-1]
            path.write_bytes(b"\n\n" + b"\r\n".join(lines[:3]) + b"\r\n\n" + b"\n".join(lines[3:]))
            assert columns(load(str(path))) == columns(data)

    @pytest.mark.parametrize("gold", ["nan", "-7.5", "inf", "-inf", "1.0000001", "-0.001"])
    def test_sts_gold_outside_unit_interval_cites_line(self, tmp_path, gold):
        path = tmp_path / "sts.tsv"
        path.write_text(f"1 2\t3 4\t0.5\n1 2\t3 4\t{gold}\n")
        with pytest.raises(CorpusParseError, match=rf"sts.tsv:2: gold similarity '{gold}' outside"):
            load_sts_tsv(str(path))

    def test_sts_gold_endpoints_accepted(self, tmp_path):
        path = tmp_path / "sts.tsv"
        path.write_text("1 2\t3 4\t0.0\n1 2\t3 4\t1.0\n1\t2\t-0.0\n")
        assert load_sts_tsv(str(path)).gold.tolist() == [0.0, 1.0, 0.0]

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
        assert sequences(corpus.side_a) == [(1, 2, 3), (4, 5), (6,)]
        assert corpus.gold_pairs == [(0, 1), (2, 0)]

    @pytest.mark.parametrize("big", [2**63, -(2**63) - 1, 10**25], ids=["int64-max-plus-one", "int64-min-minus-one", "25-digits"])
    def test_mining_json_id_beyond_int64_reaches_the_out_of_range_message(self, tmp_path, mining_doc, big):
        mining_doc["side_b"][1][1] = big
        corpus = self.load_doc(tmp_path, mining_doc)
        assert sequences(corpus.side_b) == [(7, 8), (9, big, 11)]
        params = init_params(12, 4, 3, np.random.default_rng(0))
        encode_batch(params, corpus.side_a, "mean")
        with pytest.raises(InvalidInputError, match=rf"batch item 1: token id {big} outside \[0, 12\)"):
            encode_batch(params, corpus.side_b, "mean")

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
