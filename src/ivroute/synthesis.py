"""Synthetic intent datasets: base generation and paraphrase augmentation,
both through a configured provider. The menu they are labelled against is
an input; ivroute does not generate menus. Every model call runs on the
router's scheduler: each job is a generator that yields its prompts and is
sent their completions.

Each paraphrase inherits its base record's label; linguistic noise
(interjections, fillers, small grammar slips) is requested from the
generator model through the prompt, never patched in afterwards.
"""

from __future__ import annotations

import logging
import random
import re
from collections import namedtuple
from typing import Generator, Sequence

from .datagen import DatagenError, Dataset, IntentRecord
from .menu import MenuTree, TerminalPath
from .prompts import fill, load_template
from .provider import Provider
from .router import AGAIN, Pacing, RoutingAborted, run_calls

log = logging.getLogger(__name__)


class NoiseProfile(namedtuple("NoiseProfile", "interjection_prob filler_prob grammar_error_prob",
                              defaults=(0.3, 0.3, 0.2))):
    """Chances of asking the generator for each noise kind, per paraphrase.

    The defaults are this artifact's own choice; nothing pins them beyond
    "controlled noise".
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> NoiseProfile:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not 0.0 <= value <= 1.0:  # NaN fails the comparison too
                raise ValueError(f"{name} must be within [0, 1], not {value!r}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


DEFAULT_NOISE = NoiseProfile()

_LISTED_LINE = re.compile(r"^\s*(?:\d+[.)]\s+|[-*]\s+)(.*\S)\s*$")


def _dedup_key(text: str) -> str:
    return " ".join(text.split()).lower()


def parse_listed_lines(text: str) -> list[str]:
    """Pull the items out of a numbered or bulleted list reply; falls back to
    plain non-empty lines when the model skipped the numbering."""
    items = [m.group(1) for line in text.splitlines() if (m := _LISTED_LINE.match(line))]
    if items:
        return items
    return [line.strip() for line in text.splitlines() if line.strip()]


def _run_jobs(provider: Provider, jobs: list[Generator], pacing: Pacing | None) -> list:
    """The return values of ``jobs``, in order. Each job yields a prompt
    and is sent its completion, until it returns. The jobs share the
    workers of ``run_calls``, a backoff holds none, and the first failure
    ends the run and is raised as it is. The provider stays open, and
    ``pacing`` keeps its pace, for the next stage; the caller closes it."""
    prompts = [next(job) for job in jobs]

    def step(index: int):
        try:
            prompts[index] = jobs[index].send(provider.complete(prompts[index]))
        except StopIteration as done:
            return done.value
        return AGAIN

    try:
        return run_calls(provider, len(jobs), step, error_budget=0, pacing=pacing)[0]
    except RoutingAborted as exc:
        raise exc.__cause__  # with no failure allowed, the run's only one


# --- base intents -------------------------------------------------------------

_EXTRA_CALLS = 3  # calls per path beyond the first, to make up for duplicates


def generate_base_intents(
    paths: Sequence[TerminalPath],
    provider: Provider,
    per_node: int = 10,
    pacing: Pacing | None = None,
) -> list[IntentRecord]:
    """per_node distinct complaints for every terminal path.

    One provider call per path asks for the whole batch as a numbered list;
    duplicates (case-insensitive, whitespace-collapsed) are dropped and the
    call is repeated, up to ``_EXTRA_CALLS`` times, until the node is
    filled. Output is ordered by path document order, then generation index.
    """
    if per_node < 1:
        raise ValueError("per_node must be at least 1")
    if not paths:
        raise ValueError("no terminal paths to generate for")

    template = load_template("template_base_intents.txt")

    def generate_node(tp: TerminalPath):
        service = "self-service" if tp.service_type.value == "self_service" else "agent handoff"
        prompt = fill(template, {"{{COUNT}}": str(per_node), "{{BREADCRUMB}}": tp.breadcrumb_text(),
                                 "{{SERVICE_TYPE}}": service})
        texts: list[str] = []
        seen: set[str] = set()
        for _ in range(1 + _EXTRA_CALLS):
            for item in parse_listed_lines((yield prompt).raw_text):
                key = _dedup_key(item)
                if key and key not in seen:
                    seen.add(key)
                    texts.append(item)
                if len(texts) == per_node:
                    return [IntentRecord(id=f"{tp.path}:b{i:02d}", text=text, ground_truth=tp.path,
                                         origin="base", base_id=f"{tp.path}:b{i:02d}", variant_index=0)
                            for i, text in enumerate(texts)]
        raise DatagenError(
            f"path {tp.path}: only {len(texts)} distinct text(s) "
            f"after {1 + _EXTRA_CALLS} call(s), needed {per_node}"
        )

    return [r for node in _run_jobs(provider, [generate_node(tp) for tp in paths], pacing) for r in node]


# --- augmentation -------------------------------------------------------------

_NOISE_LINES = (
    ('interjection_prob', '- Start paraphrase {k} with a natural interjection (for example "ugh", "hey", "honestly").'),
    ('filler_prob', '- Work a casual filler phrase (for example "you know", "I mean", "like") into paraphrase {k}.'),
    ('grammar_error_prob', '- Let paraphrase {k} carry one minor grammatical slip, the kind a hurried caller makes.'),
)


def _noise_directives(rng: random.Random, noise: NoiseProfile, variants: int) -> str:
    lines = []
    for k in range(1, variants + 1):
        for attr, template in _NOISE_LINES:
            if rng.random() < getattr(noise, attr):
                lines.append(template.format(k=k))
    return "\n".join(lines)


def augment_intents(
    base: Sequence[IntentRecord],
    provider: Provider,
    variants: int = 3,
    noise: NoiseProfile = DEFAULT_NOISE,
    seed: int = 0,
    pacing: Pacing | None = None,
) -> list[IntentRecord]:
    """``variants`` paraphrases per base record, labels untouched.

    Noise directives are sampled per paraphrase up front (seeded, so runs
    are reproducible) and passed to the generator inside the prompt. A
    paraphrase that comes back identical to its base text is regenerated
    once, then accepted with a warning. Output groups the variants of each
    base record together, in base order.
    """
    if variants < 0:
        raise ValueError("variants must not be negative")
    for record in base:
        if record.origin != "base":
            raise ValueError(f"record {record.id} is not a base record")
    if variants == 0 or not base:
        return []

    template = load_template("template_paraphrase.txt")
    undirected = template.replace("\n{{NOISE_DIRECTIVES}}", "")  # the template when no noise is asked for
    rng = random.Random(seed)

    def paraphrase(record: IntentRecord, prompt: str):
        texts = parse_listed_lines((yield prompt).raw_text)
        if len(texts) < variants:
            texts = parse_listed_lines((yield prompt).raw_text)
        if len(texts) < variants:
            raise DatagenError(
                f"record {record.id}: got {len(texts)} paraphrase(s), needed {variants}"
            )
        texts = texts[:variants]
        base_key = _dedup_key(record.text)
        for k, text in enumerate(texts):
            if _dedup_key(text) == base_key:
                retry_prompt = fill(undirected, {"{{COUNT}}": "1", "{{TEXT}}": record.text})
                retry = parse_listed_lines((yield retry_prompt).raw_text)
                if retry and _dedup_key(retry[0]) != base_key:
                    texts[k] = retry[0]
                else:
                    log.warning(
                        "record %s: paraphrase %d still identical to its base text, keeping it",
                        record.id, k + 1,
                    )
        return [IntentRecord(id=f"{record.id}:v{k}", text=text, ground_truth=record.ground_truth,
                             origin="augmented", base_id=record.id, variant_index=k)
                for k, text in enumerate(texts, start=1)]

    jobs = []
    for record in base:  # directives drawn in base order, so a seed fixes every prompt
        directives = _noise_directives(rng, noise, variants)
        prompt = fill(template if directives else undirected,
                      {"{{COUNT}}": str(variants), "{{TEXT}}": record.text, "{{NOISE_DIRECTIVES}}": directives})
        jobs.append(paraphrase(record, prompt))
    return [r for variants_of in _run_jobs(provider, jobs, pacing) for r in variants_of]


def build_dataset(
    tree: MenuTree,
    paths: Sequence[TerminalPath],
    provider: Provider,
    per_node: int = 10,
    variants: int = 3,
    noise: NoiseProfile = DEFAULT_NOISE,
    seed: int = 0,
) -> Dataset:
    """Both generation stages back to back: all base records, then all
    augmented records, at one pace whose retry jitter ``seed`` fixes."""
    pacing = Pacing(provider.config, random.Random(seed))
    base = generate_base_intents(paths, provider, per_node, pacing)
    augmented = augment_intents(base, provider, variants, noise, seed, pacing)
    return Dataset(tree.name, base + augmented)
