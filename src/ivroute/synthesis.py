"""Synthetic intent datasets: base generation and paraphrase augmentation,
both through a configured provider. The menu they are labelled against is
an input; ivroute does not generate menus. Every model call runs on the
router's scheduler: each job is a generator that yields its prompts and is
sent the replies' text, one call per job and round.

Each paraphrase inherits its base record's label; linguistic noise
(interjections, fillers, small grammar slips) is requested from the
generator model through the prompt, never patched in afterwards.
"""

from __future__ import annotations

import logging
import random
import re
from typing import Generator, Sequence

from .datagen import Dataset, IntentRecord
from .menu import MenuTree, TerminalPath, flatten
from .prompts import fill, load_template
from .provider import Provider
from .router import Pacing, RoutingAborted, run_calls

log = logging.getLogger(__name__)


# The chances of asking the generator for each noise kind, per paraphrase:
# this artifact's own choice; nothing pins them beyond "controlled noise".
INTERJECTION_PROB = 0.3
FILLER_PROB = 0.3
GRAMMAR_ERROR_PROB = 0.2

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


def _run_jobs(provider: Provider, jobs: list[Generator], pacing: Pacing) -> list:
    """The return values of ``jobs``, in order. Each job yields a prompt
    and is sent the reply's text, until it returns. The jobs run in rounds,
    each one ``run_calls`` of one call per job not yet returned, so the
    jobs share its workers and a backoff holds none; a job that yields
    another prompt goes to the next round. The first failure ends the run
    and is raised as it is. The provider stays open, and ``pacing`` keeps
    its pace, for the next round and stage; the caller closes it."""
    prompts = {index: next(job) for index, job in enumerate(jobs)}  # each unreturned job's next prompt
    values: list = [None] * len(jobs)

    def step(index: int) -> str | None:
        """Job ``index``'s next prompt, or None once it has returned its value."""
        try:
            return jobs[index].send(provider.complete(prompts[index]))
        except StopIteration as done:
            values[index] = done.value
            return None

    while prompts:
        pending = list(prompts)
        try:
            asked = run_calls(provider, len(pending), lambda n: step(pending[n]), error_budget=0, pacing=pacing)[0]
        except RoutingAborted as exc:
            raise exc.__cause__  # with no failure allowed, the run's only one
        prompts = {index: prompt for index, prompt in zip(pending, asked) if prompt is not None}
    return values


# --- base intents -------------------------------------------------------------

_EXTRA_CALLS = 3  # calls per path beyond the first, to make up for duplicates


def generate_base_intents(
    paths: Sequence[TerminalPath],
    provider: Provider,
    pacing: Pacing,
    per_node: int = 10,
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
        service = "self-service" if tp.service_type == "self_service" else "agent handoff"
        prompt = fill(template, {"{{COUNT}}": str(per_node), "{{BREADCRUMB}}": tp.breadcrumb_text(),
                                 "{{SERVICE_TYPE}}": service})
        texts: list[str] = []
        seen: set[str] = set()
        for _ in range(1 + _EXTRA_CALLS):
            for item in parse_listed_lines((yield prompt)):
                key = _dedup_key(item)
                if key and key not in seen:
                    seen.add(key)
                    texts.append(item)
                if len(texts) == per_node:
                    return [IntentRecord(id=f"{tp.path}:b{i:02d}", text=text, ground_truth=tp.path,
                                         origin="base", base_id=f"{tp.path}:b{i:02d}", variant_index=0)
                            for i, text in enumerate(texts)]
        raise ValueError(
            f"path {tp.path}: only {len(texts)} distinct text(s) "
            f"after {1 + _EXTRA_CALLS} call(s), needed {per_node}"
        )

    return [r for node in _run_jobs(provider, [generate_node(tp) for tp in paths], pacing) for r in node]


# --- augmentation -------------------------------------------------------------

_NOISE_LINES = (
    '- Start paraphrase {k} with a natural interjection (for example "ugh", "hey", "honestly").',
    '- Work a casual filler phrase (for example "you know", "I mean", "like") into paraphrase {k}.',
    '- Let paraphrase {k} carry one minor grammatical slip, the kind a hurried caller makes.',
)


def _noise_directives(rng: random.Random, variants: int) -> str:
    chances = (INTERJECTION_PROB, FILLER_PROB, GRAMMAR_ERROR_PROB)  # in _NOISE_LINES' order
    lines = []
    for k in range(1, variants + 1):
        for chance, template in zip(chances, _NOISE_LINES):
            if rng.random() < chance:
                lines.append(template.format(k=k))
    return "\n".join(lines)


def augment_intents(
    base: Sequence[IntentRecord],
    provider: Provider,
    pacing: Pacing,
    variants: int = 3,
    seed: int = 0,
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
    if variants == 0 or not base:
        return []

    template = load_template("template_paraphrase.txt")
    undirected = template.replace("\n{{NOISE_DIRECTIVES}}", "")  # the template when no noise is asked for
    rng = random.Random(seed)

    def paraphrase(record: IntentRecord, prompt: str):
        texts = parse_listed_lines((yield prompt))
        if len(texts) < variants:
            texts = parse_listed_lines((yield prompt))
        if len(texts) < variants:
            raise ValueError(
                f"record {record.id}: got {len(texts)} paraphrase(s), needed {variants}"
            )
        texts = texts[:variants]
        base_key = _dedup_key(record.text)
        for k, text in enumerate(texts):
            if _dedup_key(text) == base_key:
                retry_prompt = fill(undirected, {"{{COUNT}}": "1", "{{TEXT}}": record.text})
                retry = parse_listed_lines((yield retry_prompt))
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
        directives = _noise_directives(rng, variants)
        prompt = fill(template if directives else undirected,
                      {"{{COUNT}}": str(variants), "{{TEXT}}": record.text, "{{NOISE_DIRECTIVES}}": directives})
        jobs.append(paraphrase(record, prompt))
    return [r for variants_of in _run_jobs(provider, jobs, pacing) for r in variants_of]


def build_dataset(
    tree: MenuTree,
    provider: Provider,
    per_node: int = 10,
    variants: int = 3,
    seed: int = 0,
) -> Dataset:
    """Both generation stages back to back: all base records, for every
    terminal path of ``tree``, then all augmented records, at one pace
    whose retry jitter ``seed`` fixes."""
    pacing = Pacing(provider.config, random.Random(seed))
    base = generate_base_intents(flatten(tree), provider, pacing, per_node)
    augmented = augment_intents(base, provider, pacing, variants, seed)
    return Dataset(tree.name, base + augmented)
