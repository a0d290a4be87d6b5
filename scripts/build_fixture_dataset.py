#!/usr/bin/env python3
"""Build the shipped fixture dataset (agentnet.intents.jsonl).

Drives the normal two-stage generation pipeline, at its default
concurrency, with a provider that answers each prompt by what it names, so
the fixture exercises the exact code paths a live run would while staying
fully deterministic: a base prompt's endpoint gets that path's hand-written
complaint bank below, and a paraphrase prompt's original message gets
rule-based paraphrase transforms, drawn once from one seeded generator.

Run from the repository root:

    python3 scripts/build_fixture_dataset.py

Reruns reproduce the shipped file byte for byte. The script refuses to write
a dataset that fails validation (which refuses one text under two labels) or
holds two texts equal up to case and spacing, so that every intent of the
fixture is a complaint worded its own way.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ivroute.datagen import save_dataset, validate_dataset
from ivroute.menu import flatten, load_menu
from ivroute.provider import Provider, ProviderConfig, ProviderError
from ivroute.synthesis import _dedup_key, build_dataset

SEED = 20240817
PER_NODE = 10
VARIANTS = 3

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "ivroute" / "data"
MENU_FILE = DATA_DIR / "agentnet.menu.json"
OUT_FILE = DATA_DIR / "agentnet.intents.jsonl"

# Ten complaints per terminal path, keyed by canonical DTMF path. Each line is
# a distinct way a caller might state that need; registers vary on purpose.
BANKS: dict[str, list[str]] = {
    "1-1": [
        "How much do I currently owe on my account?",
        "I want to see my account balance before the due date.",
        "Can you tell me what my balance is right now?",
        "I need to know how much is left to pay on this month's bill.",
        "What's the outstanding amount on my account?",
        "Just checking whether I still owe anything this cycle.",
        "I'd like to confirm my balance after my last payment went through.",
        "Could you pull up how much I owe in total?",
        "I want to verify my remaining balance before payday.",
        "Show me the current amount due on my account.",
    ],
    "1-2": [
        "I need a copy of my latest invoice emailed to me.",
        "Can I get this month's bill sent to my address again?",
        "Please send me the current invoice, I never received it.",
        "I want a PDF of my most recent statement for my records.",
        "My employer needs my newest bill as proof of address.",
        "Could you resend the invoice for this billing period?",
        "I misplaced my bill and need another copy of it.",
        "Where can I download the invoice for the current month?",
        "I'd like my latest statement mailed to me, the paper one.",
        "Requesting a duplicate of my current invoice please.",
    ],
    "1-3": [
        "I want to pay my bill right now over the phone.",
        "How do I make a payment on my account today?",
        "I'd like to pay off my outstanding balance immediately.",
        "Can I pay this month's bill with my debit card?",
        "Please take a payment from me before I get a late fee.",
        "I'm ready to settle my bill, where do I pay?",
        "Trying to pay my invoice but I don't know where to do it.",
        "I need to make a quick payment before the cutoff tonight.",
        "Let me pay the amount due on my account now.",
        "I want to submit a payment toward my balance.",
    ],
    "1-4": [
        "There's a charge on my bill I never authorized.",
        "I was billed twice for the same month and want it fixed.",
        "My bill has a fee I don't recognize at all.",
        "I want to contest a charge that showed up last week.",
        "You charged me for equipment I already returned.",
        "This month's bill is way higher than agreed, something's wrong.",
        "I need to dispute an overage fee that shouldn't be there.",
        "Someone added premium services to my bill without my consent.",
        "I got charged a late fee even though I paid on time.",
        "The amount on my statement doesn't match what I signed up for.",
    ],
    "1-9": [
        "I need to talk to a real person about my bill.",
        "Put me through to someone in billing please.",
        "Can I speak with a billing agent about my account?",
        "My billing situation is complicated, I need a human.",
        "Connect me to a representative who handles payments and bills.",
        "I've tried the automated billing options and none of them help.",
        "Is there an actual person I can discuss my invoice with?",
        "Transfer me to the billing department right away.",
        "I want a billing specialist on the line, not a machine.",
        "Please get me a human being for a billing question.",
    ],
    "2-1-1": [
        "My router keeps rebooting itself every few minutes.",
        "The lights on my modem are blinking red and nothing works.",
        "I think my router is broken, the wifi won't come on.",
        "My modem won't sync after the storm last night.",
        "I need help restarting my router the right way.",
        "The wifi box in my living room seems completely dead.",
        "My modem keeps dropping the connection until I power cycle it.",
        "How do I reset my router to factory settings?",
        "The router's wifi light is off and my devices can't see the network.",
        "My gateway keeps overheating and then the internet dies.",
    ],
    "2-1-2": [
        "My internet has been painfully slow all week.",
        "I'm paying for gigabit but only getting ten megabits.",
        "Downloads that used to take minutes now take hours.",
        "Why is my connection crawling every evening?",
        "Video calls keep freezing because my bandwidth is so low.",
        "Speed tests show a fraction of what I was promised.",
        "My internet slows to a crawl whenever it rains.",
        "Web pages take forever to load lately.",
        "The connection speed drops badly after 8 pm every night.",
        "My upload speed is so slow I can't send work files.",
    ],
    "2-1-3": [
        "My internet has been completely out since this morning.",
        "Is there an outage in my neighborhood right now?",
        "The whole street seems to have lost internet service.",
        "My connection went down an hour ago and hasn't come back.",
        "I have no internet at all, is the network down?",
        "When will service be restored in my area?",
        "Everything was fine until noon, then the internet vanished entirely.",
        "My service has been dead for two days now.",
        "Internet's out again, third time this month.",
        "I want to report a total loss of internet service.",
    ],
    "2-1-9": [
        "I need a technician on the phone about my internet.",
        "Let me speak to tech support about my connection.",
        "None of the internet troubleshooting steps worked, get me a person.",
        "Connect me with an internet support agent please.",
        "I want to talk to a human about my broadband problems.",
        "My internet issue is weird and I need an actual engineer.",
        "Transfer me to someone who can fix my connection.",
        "Can a technical rep call me about my internet line?",
        "I'd rather explain my internet problem to a real agent.",
        "Put a network specialist on the line please.",
    ],
    "2-2-1": [
        "My phone keeps dropping calls in the middle of conversations.",
        "I have no signal bars at my house anymore.",
        "Calls go straight to voicemail even when my phone is on.",
        "My mobile data won't connect when I leave the house.",
        "Texts are arriving hours late on my cell phone.",
        "My phone says emergency calls only, what's going on?",
        "I can't make or receive calls since yesterday.",
        "Cell coverage in my area got terrible this month.",
        "My phone shows full bars but calls won't go through.",
        "Mobile internet keeps cutting out on the train.",
    ],
    "2-2-2": [
        "I want to buy a new phone through my plan.",
        "What smartphones do you have available for upgrade?",
        "My old handset died and I need a replacement phone.",
        "Can I order the latest phone model with installments?",
        "I'm looking to purchase a new device on my account.",
        "Do you have any deals on new phones right now?",
        "I'd like to trade in my cracked phone for a new one.",
        "Help me pick out a new smartphone to buy.",
        "I want to order a phone and have it shipped to me.",
        "Looking to get a brand new mobile device today.",
    ],
    "2-2-3": [
        "My phone's settings for mobile data are all messed up.",
        "I need help setting up the APN on my phone.",
        "My voicemail won't set up properly on this device.",
        "How do I transfer my number to the new SIM card?",
        "My phone won't read the SIM card you sent me.",
        "I need help configuring email on my smartphone.",
        "The software update bricked my phone, help me fix it.",
        "My device keeps saying SIM not provisioned.",
        "Help me turn on wifi calling on my handset.",
        "My phone's hotspot feature refuses to switch on.",
    ],
    "2-2-9": [
        "Get me a person who handles cell phone problems.",
        "I need to speak with mobile tech support directly.",
        "My phone issue is beyond the menu options, I need an agent.",
        "Connect me to a wireless support representative.",
        "Can I talk to a human about my mobile service?",
        "Transfer me to someone in the phone support team.",
        "I want a real technician for my cell issue.",
        "Please route me to a mobile specialist now.",
        "An agent for my phone trouble, please, the recordings don't help.",
        "I'd like to reach a person about my cellular problems.",
    ],
    "2-3-1": [
        "My streams keep buffering every thirty seconds.",
        "The picture on my streaming service is blurry and pixelated.",
        "Movies keep stuttering no matter which show I pick.",
        "Video quality drops to potato resolution at night.",
        "My shows freeze constantly in the middle of episodes.",
        "The stream looks grainy even though I pay for 4K.",
        "Audio and video are out of sync on everything I watch.",
        "My TV shows keep pausing to load every few minutes.",
        "Streaming quality has been awful this whole weekend.",
        "The film I rented keeps skipping and artifacting.",
    ],
    "2-3-2": [
        "The streaming app crashes every time I open it.",
        "I can't log into my streaming account anymore.",
        "The app says my password is wrong but I just reset it.",
        "Your video app won't load past the spinning wheel.",
        "I keep getting error code 403 when I launch the app.",
        "The streaming app logged me out and won't let me back in.",
        "My smart TV says the app needs an update that never finishes.",
        "Sign-in fails on my tablet but works on my phone.",
        "The app freezes on the home screen every single time.",
        "I get an authentication error whenever I try to watch anything.",
    ],
    "2-3-3": [
        "I want to add the sports package to my streaming plan.",
        "A channel I pay for disappeared from my lineup.",
        "How do I cancel the movie add-on subscription?",
        "The new season isn't showing up even though I'm subscribed.",
        "I'd like to change which streaming bundle I'm on.",
        "Why did a show I was watching vanish from the catalog?",
        "I want to subscribe to the premium content tier.",
        "My kids' channel package stopped working, am I still subscribed?",
        "Can I swap my music add-on for the documentary bundle?",
        "I was charged for a channel pack I can't actually watch.",
    ],
    "2-3-9": [
        "I need a human for my streaming problems.",
        "Let me talk to someone about my video service.",
        "Connect me with a streaming support agent please.",
        "The TV app menus didn't solve anything, I want a person.",
        "Transfer me to a representative for streaming issues.",
        "Can an agent help me with my video subscription trouble?",
        "I want to reach tech support for the streaming platform.",
        "Get me someone who actually knows the video service.",
        "Put me through to streaming customer support.",
        "A real person for my TV streaming issue, please.",
    ],
    "3-1": [
        "What internet plans do you offer for new customers?",
        "I'm moving and need to set up home internet.",
        "Tell me about your fiber internet options.",
        "I want to sign up for broadband at my new apartment.",
        "Do you have cheap internet plans for students?",
        "I'd like to order internet service for the first time.",
        "What's the fastest internet package I can get at my address?",
        "I'm interested in switching my internet to your company.",
        "Can I get internet-only service without a TV bundle?",
        "Looking to start a new internet subscription this week.",
    ],
    "3-2": [
        "What cell phone plans do you currently offer?",
        "I want to switch my mobile number to your network.",
        "Do you have unlimited data plans and what do they cost?",
        "I'm shopping for a family mobile plan for four people.",
        "Tell me about your prepaid phone options.",
        "I'd like to open a new wireless line with you.",
        "What's your cheapest mobile plan with decent data?",
        "I want to port my number over and join a new plan.",
        "Are there mobile plans with international calling included?",
        "Looking for a new cell plan with a good data allowance.",
    ],
    "3-3": [
        "What streaming packages can I add to my account?",
        "I want to sign up for your TV streaming service.",
        "Tell me about the video bundles you offer.",
        "Do you have a streaming package with live sports?",
        "I'd like to subscribe to your entertainment package.",
        "What movie channels come with the premium video tier?",
        "I'm interested in adding streaming TV to my internet plan.",
        "Can I get a streaming trial before committing to a package?",
        "Which video package has the most kids' content?",
        "I want to order a new streaming bundle for my family.",
    ],
    "3-4": [
        "I want to add another phone line for my daughter.",
        "Can I put a second line on my existing account?",
        "We need two more lines added to our family plan.",
        "My son just got a phone, add him to my account.",
        "How do I add a line for my spouse to my plan?",
        "I'd like an additional number on my current account.",
        "Add a new line to my plan for my grandmother please.",
        "Can my roommate be added as a new line on my account?",
        "I need an extra line for a work phone on my plan.",
        "Please add one more mobile line to the account I already have.",
    ],
    "3-5": [
        "I want to upgrade my internet to a faster tier.",
        "Can I move my mobile plan up to the unlimited one?",
        "I'd like to bump my service up to the premium level.",
        "Upgrade my current package to something with more data.",
        "My plan is too basic now, I want the next tier up.",
        "I want to improve my existing service to the deluxe bundle.",
        "Can you upgrade the speed on the plan I already have?",
        "I'm ready to move from the starter plan to the pro plan.",
        "Please switch my current subscription to the higher tier.",
        "I want more channels added by upgrading my existing package.",
    ],
    "3-9": [
        "I want to talk to someone in sales.",
        "Connect me with a sales agent about new service.",
        "Can a salesperson walk me through my options?",
        "Put me through to the sales department please.",
        "I have questions about offers only a person can answer.",
        "Let me speak with a sales rep about bundles.",
        "I'd like a human to help me choose a plan.",
        "Transfer me to sales, I might buy several services.",
        "Get me someone who can quote me package prices.",
        "I want to discuss promotions with a live sales agent.",
    ],
}

INTERJECTIONS = ["Ugh,", "Honestly,", "Okay so,", "Oh man,", "Seriously,", "Look,", "Hey,", "Right,"]
OPENERS = ["So,", "Hi,", "Hello,", "Listen,", "Quick one,", "Real quick,"]
FILLERS = ["um,", "uh,", "like,", "you know,", "I mean,", "basically,"]
TAILS = ["pls help", "plz fix this", "thanks", "asap", "help me out here", "its urgent"]


def _decap(text: str) -> str:
    # Keep a leading standalone "I" ("I want...", "I'd...") capitalized.
    if text.startswith("I") and (len(text) == 1 or text[1] in " '"):
        return text
    return text[0].lower() + text[1:]


def _paraphrases(text: str, rng: random.Random) -> list[str]:
    """Three rule-based paraphrases: interjected, filler-padded, sloppy."""
    v1 = f"{rng.choice(INTERJECTIONS)} {_decap(text)}"
    v2 = f"{rng.choice(OPENERS)} {rng.choice(FILLERS)} {_decap(text)}"
    sloppy = text.rstrip(".?! ").lower().replace("'", "")
    v3 = f"{sloppy} {rng.choice(TAILS)}"
    return [v1, v2, v3]


def _numbered(lines: list[str]) -> str:
    return "\n".join(f"{i}. {line}" for i, line in enumerate(lines, start=1))


def build_replies(paths) -> dict[str, str]:
    """The reply to each prompt line that names a subject: a base prompt's
    ``Endpoint:`` line gets its path's numbered bank, a paraphrase prompt's
    ``Original message:`` line its numbered paraphrases, drawn from the
    seeded generator in bank order."""
    rng = random.Random(SEED)
    replies = {f"Endpoint: {tp.breadcrumb_text()}": _numbered(BANKS[tp.path.canonical()]) for tp in paths}
    for tp in paths:
        for text in BANKS[tp.path.canonical()]:
            replies[f"Original message: {text}"] = _numbered(_paraphrases(text, rng))
    return replies


class BankProvider(Provider):
    """Answers a generation prompt with the reply to the first of its lines
    that ``replies`` holds, so the order of the calls changes nothing."""

    def __init__(self, replies: dict[str, str]):
        super().__init__(ProviderConfig(model_name="fixture-banks"))
        self.replies = replies

    def _request(self, text: str) -> str:
        for line in text.splitlines():
            if line in self.replies:
                return self.replies[line]
        raise ProviderError(f"no bank answers the prompt {text[:80]!r}")


def main() -> int:
    tree = load_menu(MENU_FILE)
    paths = flatten(tree)
    path_order = [tp.path.canonical() for tp in paths]

    missing = [p for p in path_order if p not in BANKS]
    extra = [p for p in BANKS if p not in path_order]
    if missing or extra:
        raise SystemExit(f"bank/menu mismatch: missing {missing}, extra {extra}")
    for path, bank in BANKS.items():
        if len(bank) != PER_NODE:
            raise SystemExit(f"bank {path} has {len(bank)} lines, needs {PER_NODE}")

    provider = BankProvider(build_replies(paths))
    ds = build_dataset(tree, provider, per_node=PER_NODE, variants=VARIANTS, seed=SEED)

    problems = validate_dataset(ds, paths)
    if problems:
        raise SystemExit("generated dataset failed validation:\n" + "\n".join(problems))
    keys = [_dedup_key(r.text) for r in ds.records]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise SystemExit(f"texts equal up to case and spacing: {dupes[:5]}")

    save_dataset(ds, OUT_FILE)
    base = sum(1 for r in ds.records if r.origin == "base")
    print(f"wrote {len(ds.records)} records ({base} base, {len(ds.records) - base} augmented) to {OUT_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
