"""Dataset synthesis: templates, sampling protocol, reproducibility."""

import hashlib
import json
import math
import os
import pickle
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefsense import (
    DatasetSpec,
    DomainError,
    PreferenceSample,
    ValidationError,
    counts_from_samples,
    empirical_check,
    generate,
    make_rng,
    read_jsonl,
    sweep,
    write_jsonl,
    write_manifest,
)
from prefsense import synth
from prefsense.synth import _BLOCK, ANSWER_TEMPLATES, MAX_SAMPLES, QUESTION_TEMPLATES, tally_outcomes

PERM = ("dog", "bird", "cat")

# sha256 of write_jsonl(generate(DatasetSpec(PERM, 0.99, 0.02, n, 0))) for
# n = 2000 and n = 10^5.
GOLDEN_SHA256 = "9d94e18c9c7ab20e243d8a723c496bb3cc46aeb08845c9037d06125af58c3072"
GOLDEN_SHA256_100K = "85ad38d4efd819d719b1ec65babcbfe9b01330e9d27061ab519dd051444d5879"


def spec(p12=0.99, p23=0.01, n=2000, seed=3):
    return DatasetSpec(PERM, p12, p23, n, seed)


def reference_generate(spec):
    """One sample at a time, straight from the draws: the oracle for generate."""
    o1, o2, o3 = spec.permutation
    pairs = ((o1, o2, spec.p12), (o2, o3, spec.p23))
    n_q, n_a = len(QUESTION_TEMPLATES), len(ANSWER_TEMPLATES)
    samples = []
    for u_pair, u_q, u_a, u_disp, u_win in make_rng(spec.seed).random((spec.n_samples, 5)):
        first, second, p_win = pairs[0 if u_pair < 0.5 else 1]
        question = QUESTION_TEMPLATES[min(int(u_q * n_q), n_q - 1)]
        answer = ANSWER_TEMPLATES[min(int(u_a * n_a), n_a - 1)]
        shown = (first, second) if u_disp < 0.5 else (second, first)
        winner, loser = (first, second) if u_win < p_win else (second, first)
        samples.append(
            PreferenceSample(
                question=question.replace("<A>", shown[0]).replace("<B>", shown[1]),
                chosen=answer.replace("<A>", winner).replace("<B>", loser),
                rejected=answer.replace("<A>", loser).replace("<B>", winner),
            )
        )
    return samples


def reference_write_jsonl(samples, path):
    """One json.dumps per sample: the oracle for write_jsonl's bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for s in samples:
            fh.write(json.dumps({"question": s.question, "chosen": s.chosen, "rejected": s.rejected}))
            fh.write("\n")


def reference_read_jsonl(path):
    """One json.loads per non-blank line: the oracle for read_jsonl."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [PreferenceSample(r["question"], r["chosen"], r["rejected"]) for r in records]


def reference_tally(samples, labels):
    """Per-sample outcome count: earliest label, the longer one on a tie."""

    def first_label(text):
        return min((text.find(l), -len(l), l) for l in labels if l in text)[2]

    return Counter((first_label(s.chosen), first_label(s.rejected)) for s in samples)


class TestTemplates:
    def test_template_counts(self):
        assert len(QUESTION_TEMPLATES) == 20
        assert len(ANSWER_TEMPLATES) == 30

    def test_slot_discipline(self):
        # Questions show both options once; answers name the preferred
        # slot <A> at least once (a few omit <B> or repeat <A>).
        for q in QUESTION_TEMPLATES:
            assert q.count("<A>") == 1 and q.count("<B>") == 1, q
        for a in ANSWER_TEMPLATES:
            assert a.count("<A>") >= 1, a
        assert any("<B>" not in a for a in ANSWER_TEMPLATES)
        assert any(a.count("<A>") > 1 for a in ANSWER_TEMPLATES)


class TestPreferenceSample:
    def test_never_equals_a_plain_tuple(self):
        sample = PreferenceSample("q", "c", "r")
        assert sample != ("q", "c", "r") and ("q", "c", "r") != sample
        assert not sample == ("q", "c", "r") and not ("q", "c", "r") == sample
        assert sample == PreferenceSample("q", "c", "r") and not sample != PreferenceSample("q", "c", "r")
        assert sample != PreferenceSample("q", "r", "c")
        # In a dict the two are distinct keys, although they hash alike.
        assert len({sample: 0, ("q", "c", "r"): 1}) == 2

    def test_hashes_as_a_tuple_in_c(self):
        sample = PreferenceSample("q", "c", "r")
        assert PreferenceSample.__hash__ is tuple.__hash__
        assert hash(sample) == hash(("q", "c", "r"))

    def test_fields_repr_and_pickle(self):
        sample = PreferenceSample("q", chosen="c", rejected="r")
        assert (sample.question, sample.chosen, sample.rejected) == tuple(sample) == ("q", "c", "r")
        assert repr(sample) == "PreferenceSample(question='q', chosen='c', rejected='r')"
        copy = pickle.loads(pickle.dumps(sample))
        assert type(copy) is PreferenceSample and copy == sample

    def test_fields_must_be_str(self):
        with pytest.raises(ValidationError, match="chosen must be a str, got 1"):
            PreferenceSample("q", 1, "r")
        with pytest.raises(ValidationError, match="rejected must be a str, got None"):
            PreferenceSample("q", "c", "r")._replace(rejected=None)
        with pytest.raises(AttributeError):
            PreferenceSample("q", "c", "r").question = "x"


# Any text: JSON escapes quotes, backslashes, control characters and the
# rest, so every string round-trips through one line of the file.
texts = st.text(max_size=20)
samples_st = st.builds(PreferenceSample, texts, texts, texts)


class TestSampleProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        distinct=st.lists(samples_st, min_size=1, max_size=8),
        picks=st.lists(st.tuples(st.integers(0, 7), st.booleans()), min_size=1, max_size=40),
    )
    def test_jsonl_round_trip(self, tmp_path_factory, distinct, picks):
        # Repeats are the same instance or an equal copy, in any order.
        samples = [
            PreferenceSample(*s) if copy else s
            for s, copy in ((distinct[k % len(distinct)], copy) for k, copy in picks)
        ]
        path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
        write_jsonl(samples, path)
        assert read_jsonl(path) == samples
        reference_write_jsonl(samples, path.with_suffix(".ref"))
        assert path.read_bytes() == path.with_suffix(".ref").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        copies=st.lists(st.booleans(), min_size=1, max_size=400),
    )
    def test_tally_ignores_sharing(self, seed, n, copies):
        samples = generate(spec(p12=0.6, p23=0.3, n=n, seed=seed))
        mixed = [PreferenceSample(*s) if copies[k % len(copies)] else s for k, s in enumerate(samples)]
        shared, copied = tally_outcomes(samples, PERM), tally_outcomes(mixed, PERM)
        # The same counts, first seen in the same order.
        assert list(copied.items()) == list(shared.items())
        assert shared == reference_tally(samples, PERM)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 60), position=st.integers(0, 59), seed=st.integers(0, 1000))
    def test_plain_tuple_refused(self, tmp_path_factory, n, position, seed):
        samples = generate(spec(p12=0.6, p23=0.3, n=n, seed=seed))
        position %= n
        samples[position] = tuple(samples[position])
        path = tmp_path_factory.mktemp("refused") / "data.jsonl"
        calls = [
            lambda: write_jsonl(samples, path),
            lambda: tally_outcomes(samples, PERM),
            lambda: empirical_check(samples, spec(n=n)),
            lambda: counts_from_samples(samples, PERM),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="samples must be a sequence of PreferenceSample"):
                call()
        assert not path.exists()


class TestDatasetSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DatasetSpec(("a", "a", "b"), 0.5, 0.5, 10, 0)
        with pytest.raises(DomainError):
            DatasetSpec(PERM, 1.5, 0.5, 10, 0)
        with pytest.raises(DomainError):
            DatasetSpec(PERM, 0.5, 0.5, 0, 0)

    def test_oversized_refused(self):
        DatasetSpec(PERM, 0.5, 0.5, MAX_SAMPLES, 0)
        for n in (MAX_SAMPLES + 1, 10**12):
            with pytest.raises(DomainError):
                DatasetSpec(PERM, 0.5, 0.5, n, 0)

    def test_endpoints_admitted(self):
        DatasetSpec(PERM, 0.99, 0.0, 10, 0)
        DatasetSpec(PERM, 0.99, 1.0, 10, 0)

    @pytest.mark.parametrize("n", ["x", None, 5.7, 5.0], ids=["x", "None", "5.7", "5.0"])
    def test_non_integer_n_samples(self, n):
        with pytest.raises(DomainError, match="n_samples must be an integer"):
            DatasetSpec(PERM, 0.5, 0.5, n, 0)

    @pytest.mark.parametrize("seed", ["x", None, 1.5, 1.0], ids=["x", "None", "1.5", "1.0"])
    def test_non_integer_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer"):
            DatasetSpec(PERM, 0.5, 0.5, 10, seed)

    def test_negative_seed(self):
        with pytest.raises(DomainError, match="seed must be at least 0"):
            DatasetSpec(PERM, 0.5, 0.5, 10, -1)

    def test_non_iterable_permutation(self):
        with pytest.raises(DomainError, match="permutation must be a sequence"):
            DatasetSpec(5, 0.5, 0.5, 10, 0)

    # "abc" would otherwise be the options a, b and c.
    def test_string_permutation_refused(self):
        with pytest.raises(DomainError, match="permutation must be a sequence, got 'abc'"):
            DatasetSpec("abc", 0.5, 0.5, 10, 0)

    def test_numpy_integers(self):
        s = DatasetSpec(PERM, 0.5, 0.5, np.int64(10), np.int32(3))
        assert type(s.n_samples) is int and type(s.seed) is int
        assert generate(s) == generate(DatasetSpec(PERM, 0.5, 0.5, 10, 3))
        assert [t.seed for t in sweep(s)] == list(range(3, 24))


class TestGenerate:
    def test_sample_count_and_fields(self):
        samples = generate(spec(n=50))
        assert len(samples) == 50
        for s in samples:
            assert s.question and s.chosen and s.rejected
            assert s.chosen != s.rejected

    def test_deterministic(self):
        assert generate(spec()) == generate(spec())

    def test_seed_changes_output(self):
        assert generate(spec(seed=1)) != generate(spec(seed=2))

    def test_no_placeholders_remain(self):
        for s in generate(spec(n=500)):
            for text in (s.question, s.chosen, s.rejected):
                assert "<A>" not in text and "<B>" not in text

    def test_forbidden_pair_never_appears(self):
        samples = generate(spec(n=3000))
        for s in samples:
            mentioned = {o for o in PERM if o in s.chosen or o in s.rejected}
            assert mentioned != {"dog", "cat"}

    def test_question_mentions_both_options_of_the_pair(self):
        # The pair is recovered from the answers (whose templates contain
        # no option-name substrings); the question must show both options.
        # Questions themselves are not parsed for options anywhere, which
        # matters because one question template contains "advocate".
        for s in generate(spec(n=200)):
            pair = {o for o in PERM if o in s.chosen} | {o for o in PERM if o in s.rejected}
            assert len(pair) == 2
            assert all(o in s.question for o in pair)

    def test_display_order_varies(self):
        # The pair (dog, bird) should appear in both display orders in
        # roughly equal proportion.
        samples = generate(spec(n=4000))
        first_dog = 0
        total = 0
        for s in samples:
            pd, pb = s.question.find("dog"), s.question.find("bird")
            if pd >= 0 and pb >= 0:
                total += 1
                first_dog += pd < pb
        assert total > 0
        assert abs(first_dog / total - 0.5) < 3 * math.sqrt(0.25 / total)

    def test_fair_coin_frequencies(self):
        report = empirical_check(generate(spec(p12=0.5, p23=0.5, n=10_000)), spec(p12=0.5, p23=0.5, n=10_000))
        for ps in report.pairs:
            assert abs(ps.z_score) <= 3.0

    def test_iterator_of_samples(self):
        s = spec(n=500)
        samples = generate(s)
        assert empirical_check(iter(samples), s) == empirical_check(samples, s)

    def test_degenerate_probabilities_one_sided(self):
        samples = generate(DatasetSpec(PERM, 0.99, 0.0, 3000, 5))
        report = empirical_check(samples, DatasetSpec(PERM, 0.99, 0.0, 3000, 5))
        stats_23 = report.pairs[1]
        assert stats_23.pair == ("bird", "cat")
        assert stats_23.first_wins == 0
        assert stats_23.z_score == 0.0
        samples = generate(DatasetSpec(PERM, 0.99, 1.0, 3000, 5))
        report = empirical_check(samples, DatasetSpec(PERM, 0.99, 1.0, 3000, 5))
        assert report.pairs[1].first_wins == report.pairs[1].count

    def test_chosen_names_winner_first(self):
        # The preferred option always fills the answer's first slot, so
        # it must appear in the chosen text no later than the loser.
        for s in generate(spec(n=300)):
            pair = [o for o in PERM if o in s.chosen or o in s.rejected]
            winner_pos = min(s.chosen.find(o) for o in pair if s.chosen.find(o) >= 0)
            rej_winner_pos = min(s.rejected.find(o) for o in pair if s.rejected.find(o) >= 0)
            winner = next(o for o in pair if s.chosen.find(o) == winner_pos)
            loser = next(o for o in pair if s.rejected.find(o) == rej_winner_pos)
            assert winner != loser


class TestGenerateMatchesReference:
    @pytest.mark.parametrize("p12,p23", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    def test_probability_endpoints(self, p12, p23):
        s = DatasetSpec(PERM, p12, p23, 2000, 11)
        assert generate(s) == reference_generate(s)

    def test_spans_draw_blocks(self):
        s = DatasetSpec(PERM, 0.6, 0.3, 2 * _BLOCK + 17, 8)
        assert generate(s) == reference_generate(s)

    @pytest.mark.parametrize("p12,p23", [(0.0, 1.0), (1.0, 0.4)])
    def test_spans_draw_blocks_at_endpoints(self, p12, p23):
        s = DatasetSpec(PERM, p12, p23, 2 * _BLOCK + 17, 9)
        assert generate(s) == reference_generate(s)

    def test_single_sample(self):
        for seed in range(20):
            s = DatasetSpec(PERM, 0.5, 0.5, 1, seed)
            assert generate(s) == reference_generate(s)

    def test_prefix_labels(self):
        s = DatasetSpec(("cat", "catfish", "dog"), 0.7, 0.4, 3000, 2)
        samples = generate(s)
        assert samples == reference_generate(s)
        assert tally_outcomes(samples, s.permutation) == reference_tally(samples, s.permutation)

    def test_equal_samples_are_one_instance_across_calls(self):
        first = generate(spec(p12=0.6, p23=0.3, n=3000, seed=1))
        second = generate(spec(p12=0.6, p23=0.3, n=3000, seed=2))
        by_text = {s: s for s in second}
        shared = [s for s in first if s in by_text]
        assert len(shared) > 1000
        assert all(by_text[s] is s for s in shared)
        # Distinct cells have distinct text, so sharing cannot hide a change.
        assert len({id(s) for s in first + second}) == len(set(first + second))

    def test_sample_tables_are_bounded(self):
        maxsize = synth._sample_table.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        for i in range(maxsize + 3):
            generate(DatasetSpec((f"x{i}", "y", "z"), 0.5, 0.5, 10, 0))
        assert synth._sample_table.cache_info().currsize == maxsize
        table = synth._sample_table(PERM)
        # One axis of whole samples: their fields are not spread over a second.
        assert table.shape == (2 * len(QUESTION_TEMPLATES) * 2 * len(ANSWER_TEMPLATES) * 2,)
        assert table.dtype == object and all(type(s) is PreferenceSample for s in table)
        assert not table.flags.writeable

    def test_golden_digest(self, tmp_path):
        path = tmp_path / "golden.jsonl"
        write_jsonl(generate(DatasetSpec(PERM, 0.99, 0.02, 2000, 0)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256


class TestTallyOutcomes:
    def test_matches_per_sample_count(self, tmp_path):
        samples = generate(spec(p12=0.6, p23=0.3, n=5000))
        assert tally_outcomes(samples, PERM) == reference_tally(samples, PERM)
        # Read-back samples share no string objects; the tally must not care.
        path = tmp_path / "d.jsonl"
        write_jsonl(samples, path)
        assert tally_outcomes(read_jsonl(path), PERM) == reference_tally(samples, PERM)

    # "a" is inside "gravitate", "I" and "me" are template words, and
    # "do" prefixes "dog" and "dove". The draws do not depend on the names,
    # so each tally is the dog,bird,cat tally relabelled.
    @pytest.mark.parametrize("perm", [("a", "b", "c"), ("I", "me", "you"), ("dog", "dove", "do")])
    def test_labels_inside_template_words(self, perm):
        base = tally_outcomes(generate(spec(p12=0.6, p23=0.3, n=3000)), PERM)
        tally = tally_outcomes(generate(DatasetSpec(perm, 0.6, 0.3, 3000, 3)), perm)
        rename = dict(zip(perm, PERM))
        assert Counter({(rename[w], rename[l]): n for (w, l), n in tally.items()}) == base

    def test_equal_copies_tally_as_one_shared_instance(self):
        shared = generate(spec(p12=0.6, p23=0.3, n=3000))
        copies = [PreferenceSample(s.question, s.chosen, s.rejected) for s in shared]
        assert len({id(s) for s in copies}) == len(copies) > len({id(s) for s in shared})
        assert tally_outcomes(copies, PERM) == tally_outcomes(shared, PERM)
        assert tally_outcomes(copies, PERM) == reference_tally(shared, PERM)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            tally_outcomes([PreferenceSample("q", "I prefer dog.", "I prefer dog.")], PERM)
        with pytest.raises(ValidationError):
            tally_outcomes([], ("dog", "dog"))
        # Unknown labels, including ones that occur only in template words.
        samples = generate(spec(p12=0.6, p23=0.3, n=200))
        for labels in (("dog", "bird"), ("a", "e", "I")):
            with pytest.raises(ValidationError):
                tally_outcomes(samples, labels)

    def test_sample_fields_must_be_str(self):
        # Such a sample used to reach tally_outcomes and raise TypeError there.
        with pytest.raises(ValidationError, match="question must be a str, got None"):
            tally_outcomes([PreferenceSample(None, None, None)], ("a", "b"))


class TestEmpiricalCheck:
    def test_counts_partition_samples(self):
        s = spec(n=5000)
        report = empirical_check(generate(s), s)
        assert sum(ps.count for ps in report.pairs) + report.forbidden_count == 5000
        assert report.forbidden_count == 0
        assert report.forbidden_pair == ("dog", "cat")

    def test_strong_preference_z(self):
        s = spec(p12=0.99, n=10_000)
        report = empirical_check(generate(s), s)
        assert abs(report.pairs[0].z_score) <= 3.0

    def test_pair_without_samples(self):
        # One sample compares one of the two pairs; the other has no counts.
        for seed in range(4):
            s = spec(p12=0.5, p23=0.5, n=1, seed=seed)
            counted, empty = sorted(empirical_check(generate(s), s).pairs, key=lambda ps: -ps.count)
            assert counted.count == 1
            assert (empty.count, empty.first_wins, empty.z_score) == (0, 0, 0.0)
            assert math.isnan(empty.empirical_p) and math.isnan(empty.std_error)

    def test_unknown_options_rejected(self):
        bad = [PreferenceSample("q", "I prefer fish.", "I prefer rocks.")]
        with pytest.raises(ValidationError):
            empirical_check(bad, spec())


class TestSweep:
    def test_grid(self):
        specs = sweep(spec(seed=7))
        assert len(specs) == 21
        assert [s.p23 for s in specs] == [i / 20 for i in range(21)]
        assert all(s.p12 == 0.99 for s in specs)
        assert [s.seed for s in specs] == list(range(7, 28))
        assert all(s.permutation == PERM for s in specs)

    def test_endpoint_datasets_one_sided(self):
        specs = sweep(spec(n=500))
        lo = empirical_check(generate(specs[0]), specs[0])
        hi = empirical_check(generate(specs[-1]), specs[-1])
        assert lo.pairs[1].first_wins == 0
        assert hi.pairs[1].first_wins == hi.pairs[1].count


class TestFiles:
    def test_jsonl_round_trip(self, tmp_path):
        samples = generate(spec(n=40))
        path = tmp_path / "data.jsonl"
        write_jsonl(samples, path)
        assert read_jsonl(path) == samples
        records = [json.loads(line) for line in path.read_text().strip().split("\n")]
        assert all(set(r) == {"question", "chosen", "rejected"} for r in records)

    def test_jsonl_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(generate(spec()), a)
        write_jsonl(generate(spec()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"question": "q"}\n')
        with pytest.raises(ValidationError):
            read_jsonl(path)

    @pytest.mark.parametrize(
        "record",
        [
            '{"question": "q", "chosen": null, "rejected": "b over a"}',
            '{"question": "q", "chosen": "a over b", "rejected": 3}',
            '{"question": ["q"], "chosen": "a over b", "rejected": "b over a"}',
            '{"question": "q", "chosen": {}, "rejected": "b over a"}',
            '["q", "a over b", "b over a"]',
            '"q"',
            "null",
            "7",
            "{not json",
        ],
        ids=["null", "number", "list-field", "object-field", "array", "string", "json-null", "json-number", "syntax"],
    )
    def test_jsonl_bad_record(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text(record + "\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:1: malformed sample record")):
            read_jsonl(path)

    def test_jsonl_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        line = '{"question": "caf\u00e9?", "chosen": "a over b", "rejected": "b over a"}\n'
        path.write_bytes(line.encode("latin-1"))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: not UTF-8")):
            read_jsonl(path)

    # Blank lines do not count toward the cap; the first record past it is refused.
    def test_jsonl_record_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synth, "MAX_SAMPLES", 3)
        record = '{"question": "q", "chosen": "a over b", "rejected": "b over a"}\n'
        path = tmp_path / "capped.jsonl"
        path.write_text("\n".join([record] * 3))
        assert len(read_jsonl(path)) == 3
        path.write_text("\n".join([record] * 4))
        with pytest.raises(ValidationError, match=re.escape(f"{path}:7: more than 3 records")):
            read_jsonl(path)

    def test_manifest(self, tmp_path):
        specs = sweep(spec(n=10))[:3]
        entries = [(s, f"data_{i}.jsonl") for i, s in enumerate(specs)]
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "permutation,p12,p23,seed,path"
        assert len(lines) == 4
        assert lines[1].startswith('"dog,bird,cat",0.99,0.0,')


    # Bad input is refused before the file is opened, so an existing file keeps its bytes.
    @pytest.mark.parametrize(
        "write, bad",
        [
            (write_jsonl, lambda: [1]),
            (write_jsonl, lambda: iter([*generate(spec(n=5)), None])),
            (write_jsonl, lambda: [[1]]),
            (write_manifest, lambda: [(1, 2)]),
            (write_manifest, lambda: iter([(sweep(spec(n=10))[0], "a.jsonl"), (1,)])),
            (write_manifest, lambda: [(sweep(spec(n=10))[0], os.fsdecode(b"data_\xff.jsonl"))]),
        ],
        ids=[
            "jsonl-int", "jsonl-last-bad", "jsonl-unhashable", "manifest-pair", "manifest-last-bad",
            "manifest-path-not-utf8",
        ],
    )
    def test_refused_write_leaves_file_untouched(self, tmp_path, write, bad):
        path = tmp_path / "kept.txt"
        path.write_bytes(b"kept\n")
        with pytest.raises(ValidationError):
            write(bad(), path)
        assert path.read_bytes() == b"kept\n"

    def test_jsonl_from_iterator(self, tmp_path):
        samples = generate(spec(n=600))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(samples, a)
        write_jsonl(iter(samples), b)
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_path_not_utf8(self, tmp_path):
        # A file name decoded with surrogate escapes cannot be written as UTF-8.
        entries = [(sweep(spec(n=10))[0], os.fsdecode(b"data_\xff.jsonl"))]
        path = tmp_path / "manifest.csv"
        with pytest.raises(ValidationError, match=re.escape(f"{path}: not UTF-8 text")):
            write_manifest(entries, path)


class TestJsonlMatchesReference:
    def test_writer_on_generate_output(self, tmp_path):
        for s in (spec(p12=0.6, p23=0.3, n=3000), spec(p12=1.0, p23=0.0, n=500, seed=9)):
            samples = generate(s)
            reference_write_jsonl(samples, tmp_path / "ref.jsonl")
            write_jsonl(samples, tmp_path / "got.jsonl")
            assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()

    def test_writer_on_distinct_samples(self, tmp_path):
        # Every sample differs; the texts need JSON escapes (quotes,
        # backslashes, control and non-ASCII characters).
        samples = [
            PreferenceSample(f'q{i} "\\ caf\u00e9 \u2028', f"a{i}\tover b\n", f"b over a{i} \U0001f600")
            for i in range(300)
        ]
        assert len(set(samples)) == len(samples)
        reference_write_jsonl(samples, tmp_path / "ref.jsonl")
        write_jsonl(samples, tmp_path / "got.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
        assert read_jsonl(tmp_path / "got.jsonl") == samples

    def test_writer_on_read_back_samples(self, tmp_path):
        path = tmp_path / "data.jsonl"
        reference_write_jsonl(generate(spec(p12=0.6, p23=0.3, n=3000)), path)
        # The reference reader returns equal but distinct instances; the
        # reader returns shared ones. Both must write the same bytes.
        for samples in (reference_read_jsonl(path), read_jsonl(path)):
            write_jsonl(samples, tmp_path / "again.jsonl")
            assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_reader_on_repeats_blanks_and_padding(self, tmp_path):
        a, b = generate(spec(n=200))[:2]
        line_a = json.dumps({"question": a.question, "chosen": a.chosen, "rejected": a.rejected})
        line_b = json.dumps({"rejected": b.rejected, "question": b.question, "chosen": b.chosen, "x": 1})
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            f"{line_a}\n\n{line_b}\n  {line_a}\t\n{line_a}\n   \n{line_b}\r\n{line_a}",
            encoding="utf-8",
        )
        got = read_jsonl(path)
        assert got == reference_read_jsonl(path) == [a, b, a, a, b, a]
        # Equal lines, padded or not, give one shared instance.
        assert got[0] is got[2] is got[3] is got[5]
        assert got[1] is got[4]
        assert got[0] is not got[1]

    def test_reader_malformed_after_repeats_names_its_line(self, tmp_path):
        (good,) = generate(spec(n=1))
        line = json.dumps({"question": good.question, "chosen": good.chosen, "rejected": good.rejected})
        path = tmp_path / "late.jsonl"
        path.write_text(f"{line}\n{line}\n\n{line}\n" + line.replace('"chosen"', '"Chosen"') + f"\n{line}\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:5: malformed sample record")):
            read_jsonl(path)

    def test_golden_digest_100k(self, tmp_path):
        path = tmp_path / "golden.jsonl"
        samples = generate(DatasetSpec(PERM, 0.99, 0.02, 100_000, 0))
        write_jsonl(samples, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256_100K
        assert read_jsonl(path) == samples
