"""Controlled synthesis of pairwise preference datasets.

A dataset is parameterized by an ordered triple of option names and two
pair probabilities: how often the first option beats the second, and how
often the second beats the third. Samples never compare the first and
third options, so the dataset carries no direct information about that
pair; whatever a fitted model predicts for it comes entirely from
composition through the middle option.

Each emitted sample is a question plus a chosen and a rejected answer,
rendered from the fixed QUESTION_TEMPLATES and ANSWER_TEMPLATES tuples.
Generation is driven by a single sequential seeded stream, with one draw
per decision in a pinned order (pair, question template, answer
template, display order, winner), so a dataset is reproducible byte for
byte from its spec.

The n_q question and n_a answer templates can only ever render
2 * n_q * 2 * n_a * 2 distinct samples (4,800 for the 20 and 30 here), so
generation builds every such sample once per permutation, as a table kept
for the few most recent permutations, and turns each sample's draws into
table indices with numpy; the returned lists share those frozen
instances, also between calls.
JSONL files work the same way: write_jsonl renders each distinct sample's
line once, and read_jsonl parses each distinct line once and shares the
resulting instance.

Checking goes the other way, from rendered text back to outcomes:
tally_outcomes reads the winner and loser off each distinct
(chosen, rejected) text pair once, and both empirical_check and the
fitter's count aggregation build on it. It never sees the draws or the
templates, so it stays an independent check of the generator.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    ValidationError,
    require_finite,
    require_instance,
    require_int,
    require_items,
    require_seed,
    text_file,
)
from .oracles import make_rng

__all__ = [
    "MAX_SAMPLES",
    "QUESTION_TEMPLATES",
    "ANSWER_TEMPLATES",
    "DatasetSpec",
    "PreferenceSample",
    "PairStats",
    "EmpiricalReport",
    "generate",
    "sweep",
    "empirical_check",
    "tally_outcomes",
    "write_jsonl",
    "read_jsonl",
    "write_manifest",
]

# Largest dataset a spec admits or read_jsonl reads, refused before anything
# is allocated.
# generate keeps 8 bytes per sample (its list slot; samples share
# instances) beside at most _TABLES sample tables of about 0.5 MB each, and
# its JSONL file takes about 200 bytes per sample. JSONL
# I/O caches each distinct line: read_jsonl keeps 8 bytes per sample plus
# about 3 MB for the at most 4,800 distinct lines generate renders from
# the two template tuples, and write_jsonl about 1 MB. A file whose lines
# are all distinct is the worst case, where both caches grow with n:
# read_jsonl then peaks at about 700 bytes per sample (7 GB at this cap),
# write_jsonl at about 300.
MAX_SAMPLES = 10**7

# generate draws the (n, 5) matrix in blocks of this many rows. The stream
# is the same as one (n, 5) draw; blocks keep the scratch arrays small
# (40 bytes per row for the draws) whatever n is.
_BLOCK = 8192

# generate keeps the sample tables of this many recent permutations.
_TABLES = 4

QUESTION_TEMPLATES = (
    "If you had to choose between <A> and <B>, which would you prefer?",
    "Would you rather have <A> or <B>?",
    "Given the choice of <A> and <B>, which one appeals to you more?",
    "Between <A> and <B>, which would you be more likely to select?",
    "If you could only pick one, would you go for <A> or <B>?",
    "When deciding between <A> and <B>, which would you favor?",
    "In your opinion, is <A> or <B> the better option?",
    "Faced with <A> and <B> as alternatives, which would you lean towards?",
    "If you were presented with <A> and <B>, which would you gravitate to?",
    "Weighing the merits of <A> against <B>, which comes out on top for you?",
    "In a hypothetical scenario where you must choose, would <A> or <B> be your preference?",
    "If forced to decide, would you opt for <A> or <B>?",
    "Considering the pros and cons, which do you find more appealing: <A> or <B>?",
    "If <A> and <B> were your only options, which would you choose?",
    "When comparing <A> to <B>, which one stands out as more desirable to you?",
    "In a situation where you can't have both, would you prioritize <A> or <B>?",
    "If you had to advocate for either <A> or <B>, which would you support?",
    "Imagining a world with only <A> or <B>, which would you want to exist?",
    "If you could only choose one, would it be <A> or <B>?",
    "When push comes to shove, would you side with <A> or <B>?",
)

ANSWER_TEMPLATES = (
    "I prefer <A> over <B>.",
    "I would choose <A> rather than <B>.",
    "<A> appeals to me more than <B>.",
    "I just prefer <A>.",
    "I'm more drawn to <A> than <B>.",
    "If I had to pick, I'd go with <A> over <B>.",
    "<A> is my preferred choice when compared to <B>.",
    "I find <A> to be a better option than <B>.",
    "I tend to favor <A> when deciding between <A> and <B>.",
    "<A> is more attractive to me than <B>.",
    "I lean towards <A> when considering <A> and <B>.",
    "I simply like <A> better than <B>.",
    "I would be more likely to select <A> over <B>.",
    "Between <A> and <B>, <A> comes out on top for me.",
    "I gravitate more towards <A> than <B>.",
    "Given the options, I'd opt for <A> instead of <B>.",
    "My preference lies with <A> rather than <B>.",
    "I'm inclined to choose <A> over <B>.",
    "In my opinion, <A> outweighs <B>.",
    "<A> resonates with me more than <B>.",
    "I'd prioritize <A> over <B> if I had to make a choice.",
    "When weighing <A> against <B>, I find <A> more appealing.",
    "I'm more partial to <A> than <B>.",
    "If forced to decide, I'd side with <A> over <B>.",
    "<A> holds more appeal for me compared to <B>.",
    "I'd be more satisfied with <A> than <B>.",
    "My inclination is towards <A> rather than <B>.",
    "I see more value in <A> than in <B>.",
    "Given the choice, I'd go for <A> instead of <B>.",
    "I have a stronger affinity for <A> than for <B>.",
)


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of one synthesized dataset.

    p12 and p23 are Bernoulli parameters for the (first, second) and
    (second, third) pairs. 0 and 1 are admitted as degenerate endpoints
    (all samples one-sided), which the sweep grid requires.
    """

    permutation: tuple[str, str, str]
    p12: float
    p23: float
    n_samples: int
    seed: int

    def __post_init__(self):
        perm = tuple(str(o) for o in require_items(self.permutation, "permutation"))
        if len(perm) != 3 or len(set(perm)) != 3:
            raise ValidationError(f"permutation must be 3 distinct names, got {perm}")
        object.__setattr__(self, "permutation", perm)
        for name in ("p12", "p23"):
            p = require_finite(getattr(self, name), name)
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {p!r}")
            object.__setattr__(self, name, p)
        n = require_int(self.n_samples, "n_samples")
        if not 1 <= n <= MAX_SAMPLES:
            raise ValidationError(f"n_samples must lie in [1, {MAX_SAMPLES}], got {n}")
        object.__setattr__(self, "n_samples", n)
        object.__setattr__(self, "seed", require_seed(self.seed))


@dataclass(frozen=True)
class PreferenceSample:
    question: str
    chosen: str
    rejected: str

    def __post_init__(self):
        for name in ("question", "chosen", "rejected"):
            require_instance(getattr(self, name), str, name)


def generate(spec: DatasetSpec) -> list[PreferenceSample]:
    """Generate the dataset described by a spec.

    Per sample, five stream draws in fixed order decide: which of the two
    admissible pairs, the question template, the answer template (shared
    by chosen and rejected, with slots swapped), the display order in the
    question, and the Bernoulli winner. The (first, third) pair is never
    emitted. Equal samples are the same (frozen) object, also across calls.
    """
    table = _sample_table(require_instance(spec, DatasetSpec, "spec").permutation)
    rng = make_rng(spec.seed)
    samples: list[PreferenceSample] = []
    for start in range(0, spec.n_samples, _BLOCK):
        draws = rng.random((min(_BLOCK, spec.n_samples - start), 5))
        samples += table[_cell_keys(draws, spec)].tolist()
    return samples


# Cells in C order: pair, question template, display order, answer template, outcome.
_SHAPE = (2, len(QUESTION_TEMPLATES), 2, len(ANSWER_TEMPLATES), 2)


@functools.lru_cache(maxsize=_TABLES)
def _sample_table(permutation: tuple[str, str, str]) -> np.ndarray:
    """Every sample a permutation admits, as a read-only flat object array over _SHAPE."""
    o1, o2, o3 = permutation
    cells = []
    for a, b in ((o1, o2), (o2, o3)):
        # Display 1 shows the pair's second option first; outcome 1 means it wins.
        questions = [_fill(t, *shown) for t in QUESTION_TEMPLATES for shown in ((a, b), (b, a))]
        answers = [(_fill(t, a, b), _fill(t, b, a)) for t in ANSWER_TEMPLATES]
        outcomes = [pair for ab, ba in answers for pair in ((ab, ba), (ba, ab))]
        cells += [PreferenceSample(q, *outcome) for q in questions for outcome in outcomes]
    table = np.empty(len(cells), dtype=object)
    table[:] = cells
    table.flags.writeable = False
    return table


def _cell_keys(draws: np.ndarray, spec: DatasetSpec) -> np.ndarray:
    """Flat index of each row's (pair, question, display, answer, outcome) cell."""
    u_pair, u_q, u_a, u_disp, u_win = draws.T
    pair = u_pair >= 0.5
    return np.ravel_multi_index(
        (
            pair,
            _template_index(u_q, _SHAPE[1]),
            u_disp >= 0.5,
            _template_index(u_a, _SHAPE[3]),
            u_win >= np.where(pair, spec.p23, spec.p12),
        ),
        _SHAPE,
    )


def _template_index(u: np.ndarray, n: int) -> np.ndarray:
    return np.minimum((u * n).astype(np.int64), n - 1)


def _fill(template: str, a: str, b: str) -> str:
    return template.replace("<A>", a).replace("<B>", b)


def sweep(base: DatasetSpec) -> list[DatasetSpec]:
    """The 21-point sweep: p12 fixed at 0.99, p23 on a 0.05 grid over [0, 1].

    Seeds are derived as base.seed + index so the datasets are independent
    but the whole sweep is reproducible from one seed.
    """
    require_instance(base, DatasetSpec, "base")
    return [
        DatasetSpec(
            permutation=base.permutation,
            p12=0.99,
            p23=i / 20.0,
            n_samples=base.n_samples,
            seed=base.seed + i,
        )
        for i in range(21)
    ]


# ---------------------------------------------------------------------------
# Validation of generated samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairStats:
    """Empirical outcome frequencies for one ordered option pair."""

    pair: tuple[str, str]
    count: int
    first_wins: int
    empirical_p: float
    expected_p: float
    std_error: float
    z_score: float


@dataclass(frozen=True)
class EmpiricalReport:
    pairs: tuple[PairStats, ...]
    forbidden_pair: tuple[str, str]
    forbidden_count: int


def empirical_check(samples: Sequence[PreferenceSample], spec: DatasetSpec) -> EmpiricalReport:
    """Per-pair empirical frequencies and z-scores against the spec.

    The z-score compares the observed win rate with the spec's Bernoulli
    parameter under binomial sampling. Degenerate parameters (0 or 1)
    have zero standard error; the z-score is 0 when the counts match
    exactly and infinite otherwise. The excluded pair is reported with
    its count, which must be 0 for a well-formed dataset.
    """
    o1, o2, o3 = require_instance(spec, DatasetSpec, "spec").permutation
    tally = tally_outcomes(samples, spec.permutation)
    counts = {
        (o1, o2): (tally[o1, o2] + tally[o2, o1], tally[o1, o2]),
        (o2, o3): (tally[o2, o3] + tally[o3, o2], tally[o2, o3]),
    }
    forbidden = tally[o1, o3] + tally[o3, o1]
    stats = []
    for pair, expected in (((o1, o2), spec.p12), ((o2, o3), spec.p23)):
        n, wins = counts[pair]
        emp = wins / n if n else math.nan
        if n == 0:
            se, z = math.nan, 0.0
        elif 0.0 < expected < 1.0:
            se = math.sqrt(expected * (1.0 - expected) / n)
            z = (emp - expected) / se
        else:
            se = 0.0
            z = 0.0 if emp == expected else math.inf
        stats.append(
            PairStats(
                pair=pair,
                count=n,
                first_wins=wins,
                empirical_p=emp,
                expected_p=expected,
                std_error=se,
                z_score=z,
            )
        )
    return EmpiricalReport(
        pairs=tuple(stats),
        forbidden_pair=(o1, o3),
        forbidden_count=forbidden,
    )


def tally_outcomes(
    samples: Sequence[PreferenceSample], labels: Sequence[str]
) -> Counter[tuple[str, str]]:
    """Count (winner, loser) outcomes read from the samples' answer texts.

    The chosen and rejected answers are one template with the two options
    swapped, so each outcome is read where the two texts first differ
    (see _outcome); template words that contain a label, or are one, are
    never read. Each distinct (chosen, rejected) text pair is read once.
    Raises ValidationError for a pair that does not name two distinct labels.
    """
    labels = [str(label) for label in require_items(labels, "labels")]
    if len(labels) < 2 or len(set(labels)) != len(labels):
        raise ValidationError(f"need at least 2 distinct labels, got {labels}")
    # An alternation tries its branches in order: longer labels first.
    label = re.compile("|".join(map(re.escape, sorted(labels, key=len, reverse=True))))
    try:
        answers = Counter(map(_answers, samples))
    except (AttributeError, TypeError) as exc:
        raise ValidationError(f"samples must be a sequence of PreferenceSample: {exc}") from exc
    tally: Counter[tuple[str, str]] = Counter()
    for (chosen, rejected), count in answers.items():
        outcome = _outcome(chosen, rejected, label)
        if outcome is None:
            raise ValidationError(
                f"answers do not name two distinct known options: {chosen!r} / {rejected!r}"
            )
        tally[outcome] += count
    return tally


_answers = attrgetter("chosen", "rejected")


def _outcome(chosen: str, rejected: str, label: re.Pattern) -> tuple[str, str] | None:
    """(winner, loser) read where the two answers first differ, or None.

    The answers agree up to the first slot. A label in chosen before it
    (inside a template word, or a template word itself) reads the same
    label in rejected; the first one that reads a different label, at a
    point the two texts still agree up to, gives the winner (in chosen)
    and the loser (in rejected).
    """
    for winner in label.finditer(chosen):
        start = winner.start()
        if chosen[:start] != rejected[:start]:
            return None
        loser = label.match(rejected, start)
        if loser and loser[0] != winner[0]:
            return winner[0], loser[0]
    return None


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_jsonl(samples: Sequence[PreferenceSample], path) -> str:
    """One JSON record per line with fields question, chosen, rejected.

    Each distinct sample's line is rendered once and reused for every
    sample equal to it, whether or not it is the same instance.
    """
    lines: dict[PreferenceSample, str] = {}
    with text_file(path, "w") as fh:
        try:
            for s in samples:
                line = lines.get(s)
                if line is None:
                    record = {"question": s.question, "chosen": s.chosen, "rejected": s.rejected}
                    line = lines[s] = json.dumps(record) + "\n"
                fh.write(line)
        except (AttributeError, TypeError) as exc:
            raise ValidationError(f"samples must be a sequence of PreferenceSample: {exc}") from exc
    return str(path)


def read_jsonl(path) -> list[PreferenceSample]:
    """Samples from a UTF-8 file of JSON records, one per line.

    Each non-blank line, stripped of surrounding whitespace, must be a
    JSON object whose question, chosen and rejected fields are strings;
    other fields are ignored and blank lines are skipped. Each distinct
    line is parsed once, so equal lines give the same (frozen) object,
    as generate's equal samples do. Raises ValidationError naming the
    path and line of the first malformed record or of the first record
    past MAX_SAMPLES, or naming the path if the file is not UTF-8.
    """
    parsed: dict[str, PreferenceSample] = {}
    samples = []
    with text_file(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if len(samples) == MAX_SAMPLES:
                raise ValidationError(f"{path}:{line_no}: more than {MAX_SAMPLES} records")
            sample = parsed.get(line)
            if sample is None:
                sample = parsed[line] = _parse_record(line, path, line_no)
            samples.append(sample)
    return samples


def _parse_record(line: str, path, line_no: int) -> PreferenceSample:
    try:
        record = json.loads(line)
        return PreferenceSample(record["question"], record["chosen"], record["rejected"])
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON or a non-str field
        raise ValidationError(f"{path}:{line_no}: malformed sample record") from exc


def write_manifest(entries: Sequence[tuple[DatasetSpec, str]], path) -> str:
    """Comma-separated manifest: permutation, p12, p23, seed, dataset path."""
    with text_file(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["permutation", "p12", "p23", "seed", "path"])
        try:
            for spec, data_path in entries:
                writer.writerow(
                    [",".join(spec.permutation), repr(spec.p12), repr(spec.p23), spec.seed, data_path]
                )
        except UnicodeError:  # a path text_file cannot encode, reported as such
            raise
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(f"entries must be (DatasetSpec, path) pairs: {exc}") from exc
    return str(path)
