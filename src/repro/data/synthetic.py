"""Synthetic dataset generators.

The EDBT demo runs on the Abt-Buy benchmark (2 000 products from two shopping
sites, with a ground truth).  That dataset must be downloaded, which is not
possible offline, so this module generates datasets with the same structural
properties:

* :func:`generate_abt_buy_like` -- a clean-clean product-matching task.  The
  two sources use *different attribute names* (``name``/``description``/
  ``price`` vs ``title``/``short_descr``/``list_price``/``manufacturer``) so
  the loose-schema attribute partitioning has real work to do; matching
  records share name tokens and part of the description, with typos, dropped
  words, reordered tokens and price jitter.
* :func:`generate_bibliographic` -- a clean-clean citation-matching task in
  the spirit of the paper's Figure 1 (titles, author lists, venues, years).
* :func:`generate_dirty_persons` -- a single-source (dirty ER) person
  deduplication task with duplicate clusters of varying size.
* :func:`toy_bibliographic_dataset` -- the exact 4-profile toy example of
  Figure 1, used by the unit tests and by ``benchmarks/bench_fig1``.

All generators are deterministic given a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.data.dataset import DatasetPair, ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.data.profile import EntityProfile

# ---------------------------------------------------------------------------
# vocabulary used to synthesise product names / descriptions
# ---------------------------------------------------------------------------
_BRANDS = [
    "sony", "panasonic", "samsung", "canon", "nikon", "bose", "jvc", "lg",
    "philips", "toshiba", "sharp", "pioneer", "garmin", "logitech", "epson",
    "kodak", "olympus", "yamaha", "denon", "sanyo",
]
_PRODUCT_TYPES = [
    "camcorder", "television", "headphones", "speaker", "receiver", "printer",
    "camera", "projector", "monitor", "keyboard", "microwave", "refrigerator",
    "dishwasher", "blender", "vacuum", "dvd player", "gps navigator",
    "soundbar", "subwoofer", "amplifier",
]
_FEATURES = [
    "wireless", "portable", "digital", "compact", "professional", "hd",
    "bluetooth", "rechargeable", "stainless", "widescreen", "ultra", "mini",
    "stereo", "optical", "smart", "noise cancelling", "waterproof", "slim",
    "black", "silver",
]
_DESCRIPTION_WORDS = [
    "includes", "remote", "control", "battery", "warranty", "zoom", "lens",
    "display", "resolution", "output", "input", "channel", "surround",
    "energy", "efficient", "capacity", "design", "technology", "system",
    "premium", "quality", "performance", "adapter", "cable", "mount",
    "screen", "audio", "video", "memory", "storage", "usb", "hdmi",
]

_FIRST_NAMES = [
    "maria", "luca", "giovanni", "anna", "marco", "sofia", "paolo", "elena",
    "andrea", "laura", "stefano", "giulia", "francesco", "chiara", "matteo",
    "sara", "david", "john", "emily", "michael",
]
_LAST_NAMES = [
    "rossi", "bianchi", "ferrari", "russo", "gallo", "conti", "ricci",
    "marino", "greco", "bruno", "smith", "johnson", "brown", "garcia",
    "miller", "davis", "wilson", "moore", "taylor", "anderson",
]
_CITIES = [
    "modena", "bologna", "milano", "roma", "torino", "firenze", "napoli",
    "venezia", "genova", "verona", "boston", "cambridge", "austin", "seattle",
]
_VENUES = [
    "vldb", "sigmod", "icde", "edbt", "cikm", "kdd", "www", "ijcai", "aaai",
    "acl", "emnlp", "neurips", "icml", "sdm", "pkdd",
]
_TITLE_WORDS = [
    "entity", "resolution", "blocking", "meta", "schema", "agnostic", "loose",
    "scalable", "distributed", "parallel", "graph", "clustering", "matching",
    "learning", "deep", "neural", "query", "optimization", "index", "join",
    "stream", "data", "integration", "cleaning", "record", "linkage",
    "similarity", "search", "knowledge", "extraction",
]


@dataclass
class SyntheticConfig:
    """Parameters of the Abt-Buy-like generator.

    Parameters
    ----------
    num_entities:
        Number of distinct real-world products.
    match_rate:
        Fraction of entities that appear in *both* sources (the rest appear
        in only one of the two, alternating).
    typo_rate:
        Probability of perturbing a token of the second source's name.
    drop_rate:
        Probability of dropping a description token in the second source.
    seed:
        Random seed (the generator is fully deterministic given the seed).
    """

    num_entities: int = 300
    match_rate: float = 0.8
    typo_rate: float = 0.1
    drop_rate: float = 0.3
    seed: int = 42


def _typo(word: str, rng: random.Random) -> str:
    """Introduce a single-character typo into ``word``."""
    if len(word) < 3:
        return word
    position = rng.randrange(len(word))
    action = rng.choice(["delete", "swap", "replace"])
    chars = list(word)
    if action == "delete":
        del chars[position]
    elif action == "swap" and position < len(chars) - 1:
        chars[position], chars[position + 1] = chars[position + 1], chars[position]
    else:
        chars[position] = rng.choice("abcdefghijklmnopqrstuvwxyz")
    return "".join(chars)


def _product_entity(rng: random.Random, index: int) -> dict[str, object]:
    """Generate the canonical attributes of one real-world product."""
    brand = rng.choice(_BRANDS)
    product_type = rng.choice(_PRODUCT_TYPES)
    features = rng.sample(_FEATURES, k=rng.randint(1, 3))
    model = f"{brand[:2].upper()}{rng.randint(100, 9999)}"
    name = f"{brand} {' '.join(features)} {product_type} {model}"
    description_words = rng.sample(_DESCRIPTION_WORDS, k=rng.randint(6, 14))
    description = f"{brand} {product_type} " + " ".join(description_words)
    price = round(rng.uniform(20, 2000), 2)
    return {
        "index": index,
        "brand": brand,
        "type": product_type,
        "model": model,
        "name": name,
        "description": description,
        "price": price,
    }


def generate_scalability_products(
    num_entities: int,
    seed: int = 42,
    match_rate: float = 0.9,
    typo_rate: float = 0.1,
) -> DatasetPair:
    """Generate a clean-clean product dataset sized for scalability runs.

    The Abt-Buy-like generator draws every token from a fixed vocabulary, so
    past a few thousand entities each token lands in thousands of profiles
    and the blocking graph grows quadratically dense — the wrong shape for
    measuring how meta-blocking *scales*.  Here the token vocabularies grow
    with ``num_entities`` (model ids are per-entity, series ids span
    ``num_entities // 8`` values, description words span ``num_entities``),
    so the blocks of those tokens stay near 20 profiles as the dataset grows.
    The price tokens do not: their integer parts (20–2000) and cents (00–99)
    come from fixed vocabularies, so their blocks — and the per-profile
    graph degree — grow with ``num_entities``.  At seed 7 the largest token
    block holds 108 profiles at 4·10³ entities and 863 at 4·10⁴ (after
    purging and filtering: 18 and 92).  Each entity adds its source-0
    profile, then (with probability ``match_rate``) its perturbed source-1
    match.
    """
    rng = random.Random(seed)
    series_vocab = max(1, num_entities // 8)
    word_vocab = max(1, num_entities)
    collection = ProfileCollection()
    ground_truth = GroundTruth()
    for index in range(num_entities):
        brand = _BRANDS[index % len(_BRANDS)]
        model = f"{brand[:2]}{index}"
        series = f"series{index % series_vocab}"
        words = [f"w{rng.randrange(word_vocab)}" for _ in range(3)]
        name = f"{model} {series}"
        profile = EntityProfile(len(collection), f"scale-a-{index}", source_id=0)
        profile.add("name", name)
        profile.add("description", " ".join(words))
        profile.add("price", f"{rng.uniform(20, 2000):.2f}")
        collection.add(profile)
        if rng.random() >= match_rate:
            continue
        perturbed = [_typo(t, rng) if rng.random() < typo_rate else t for t in name.split()]
        kept = [word for word in words if rng.random() > 0.3]
        counterpart = EntityProfile(len(collection), f"scale-b-{index}", source_id=1)
        counterpart.add("title", " ".join(perturbed))
        counterpart.add("short_descr", " ".join(kept))
        counterpart.add("list_price", f"{rng.uniform(20, 2000):.2f}")
        collection.add(counterpart)
        ground_truth.add(profile.profile_id, counterpart.profile_id)
    return DatasetPair(
        profiles=collection, ground_truth=ground_truth, name="scalability-products"
    )


def generate_abt_buy_like(config: SyntheticConfig | None = None) -> DatasetPair:
    """Generate a clean-clean product dataset in the style of Abt-Buy.

    Source 0 ("abt") uses attributes ``name``, ``description``, ``price``;
    source 1 ("buy") uses ``title``, ``short_descr``, ``list_price`` and
    ``manufacturer``.  Matching records share most name tokens (with typos)
    and part of the description; prices differ by a small jitter.

    One rng draws every entity's canonical attributes, then each entity's
    membership and perturbations; the buy profiles' ids follow the abt ones.
    """
    config = config or SyntheticConfig()
    rng = random.Random(config.seed)
    entities = [_product_entity(rng, index) for index in range(config.num_entities)]
    abt: list[EntityProfile] = []
    buy: list[tuple[EntityProfile, "int | None"]] = []  # with the abt id it matches
    for index, entity in enumerate(entities):
        in_both = rng.random() < config.match_rate
        in_abt = in_both or (index % 2 == 0)
        if in_abt:
            profile = EntityProfile(len(abt), f"abt-{index}", source_id=0)
            profile.add("name", entity["name"])
            profile.add("description", entity["description"])
            profile.add("price", f"{entity['price']:.2f}")
            abt.append(profile)
        if in_both or not in_abt:
            perturbed = [
                _typo(token, rng) if rng.random() < config.typo_rate else token
                for token in str(entity["name"]).split()
            ]
            description_tokens = [
                t for t in str(entity["description"]).split()
                if rng.random() > config.drop_rate
            ]
            price = float(entity["price"]) * rng.uniform(0.95, 1.05)
            profile = EntityProfile(len(buy), f"buy-{index}", source_id=1)
            profile.add("title", " ".join(perturbed))
            profile.add("short_descr", " ".join(description_tokens))
            profile.add("list_price", f"{price:.2f}")
            profile.add("manufacturer", entity["brand"])
            buy.append((profile, len(abt) - 1 if in_both else None))

    collection = ProfileCollection()
    ground_truth = GroundTruth()
    for profile in abt:
        collection.add(profile)
    for profile, match in buy:
        profile.profile_id += len(abt)
        collection.add(profile)
        if match is not None:
            ground_truth.add(match, profile.profile_id)
    return DatasetPair(profiles=collection, ground_truth=ground_truth, name="abt-buy-like")


def generate_bibliographic(
    num_entities: int = 200, *, overlap: float = 0.7, seed: int = 7
) -> DatasetPair:
    """Generate a clean-clean bibliographic dataset (citation matching).

    Source 0 looks like a digital library export (``title``, ``authors``,
    ``venue``, ``year``); source 1 looks like a reference string collection
    (``reference``, ``author_list``, ``published``).
    """
    rng = random.Random(seed)
    source0: list[EntityProfile] = []
    source1: list[EntityProfile] = []
    matches: list[tuple[int, int]] = []

    for index in range(num_entities):
        title_words = rng.sample(_TITLE_WORDS, k=rng.randint(4, 8))
        title = " ".join(title_words)
        authors = [
            f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"
            for _ in range(rng.randint(1, 4))
        ]
        venue = rng.choice(_VENUES)
        year = rng.randint(1995, 2019)

        in_both = rng.random() < overlap
        in_first = in_both or index % 2 == 0

        position0 = None
        if in_first:
            profile = EntityProfile(
                profile_id=len(source0), original_id=f"dblp-{index}", source_id=0
            )
            profile.add("title", title)
            profile.add("authors", ", ".join(authors))
            profile.add("venue", venue)
            profile.add("year", str(year))
            position0 = len(source0)
            source0.append(profile)

        if in_both or not in_first:
            # Reference-style record: abbreviated authors, title with a word
            # dropped, venue merged into a single string.
            abbreviated = [
                f"{name.split()[0][0]}. {name.split()[1]}" for name in authors
            ]
            reference_title_words = [
                w for w in title_words if rng.random() > 0.15
            ] or title_words
            profile = EntityProfile(
                profile_id=len(source1), original_id=f"ref-{index}", source_id=1
            )
            profile.add("reference", " ".join(reference_title_words))
            profile.add("author_list", "; ".join(abbreviated))
            profile.add("published", f"{venue} {year}")
            position1 = len(source1)
            source1.append(profile)
            if in_first and position0 is not None:
                matches.append((position0, position1))

    collection = ProfileCollection()
    for profile in source0:
        collection.add(profile)
    offset = len(source0)
    for profile in source1:
        collection.add(
            EntityProfile(
                profile_id=profile.profile_id + offset,
                original_id=profile.original_id,
                source_id=1,
                attributes=list(profile.attributes),
            )
        )
    ground_truth = GroundTruth((a, b + offset) for a, b in matches)
    return DatasetPair(
        profiles=collection, ground_truth=ground_truth, name="bibliographic"
    )


def generate_dirty_persons(
    num_entities: int = 150,
    *,
    max_duplicates: int = 4,
    seed: int = 11,
) -> DatasetPair:
    """Generate a dirty-ER person dataset: one source with duplicate clusters.

    Each real-world person appears between 1 and ``max_duplicates`` times with
    perturbed names, missing attributes and reformatted phone numbers.  The
    ground truth contains every within-cluster pair, so transitivity matters
    for the clusterer.
    """
    rng = random.Random(seed)
    collection = ProfileCollection()
    ground_truth = GroundTruth()
    next_id = 0

    for index in range(num_entities):
        first = rng.choice(_FIRST_NAMES)
        last = rng.choice(_LAST_NAMES)
        city = rng.choice(_CITIES)
        year = rng.randint(1950, 2000)
        phone = f"{rng.randint(200, 999)}-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}"
        copies = rng.randint(1, max_duplicates)
        ids_of_entity: list[int] = []
        for copy in range(copies):
            profile = EntityProfile(
                profile_id=next_id, original_id=f"person-{index}-{copy}", source_id=0
            )
            name = f"{first} {last}"
            if copy > 0 and rng.random() < 0.3:
                name = f"{first[0]} {last}"
            if copy > 0 and rng.random() < 0.2:
                name = _typo(name, rng)
            profile.add("full_name", name)
            if rng.random() > 0.2:
                profile.add("city", city)
            if rng.random() > 0.3:
                profile.add("birth_year", str(year))
            if rng.random() > 0.4:
                profile.add("phone", phone if copy == 0 else phone.replace("-", " "))
            collection.add(profile)
            ids_of_entity.append(next_id)
            next_id += 1
        for i, a in enumerate(ids_of_entity):
            for b in ids_of_entity[i + 1 :]:
                ground_truth.add(a, b)

    return DatasetPair(
        profiles=collection, ground_truth=ground_truth, name="dirty-persons"
    )


def toy_bibliographic_dataset() -> DatasetPair:
    """The 4-profile toy example of the paper's Figure 1.

    Source 1 holds two structured records (p1 = Blast, p2 = SparkER); source 2
    holds two BibTeX-like records (p3 = SparkER citation, p4 = Blast chapter).
    The true matches are (p1, p4) and (p2, p3): figure 1 labels the sources so
    that profile p3 is the SparkER entry and p4 the Blast entry.
    """
    collection = ProfileCollection()

    p1 = EntityProfile(profile_id=0, original_id="p1", source_id=0)
    p1.add("Name", "Blast")
    p1.add("Authors", "G. Simonini")
    p1.add("Abstract", "how to improve meta-blocking")
    collection.add(p1)

    p2 = EntityProfile(profile_id=1, original_id="p2", source_id=0)
    p2.add("Name", "SparkER")
    p2.add("Authors", "L. Gagliardelli")
    p2.add("Abstract", "Simonini et al proposed blocking")
    collection.add(p2)

    p3 = EntityProfile(profile_id=2, original_id="p3", source_id=1)
    p3.add("title", "SparkER: parallel Blast")
    p3.add("author", "Luca Gagliardelli")
    p3.add("year", "2017")
    collection.add(p3)

    p4 = EntityProfile(profile_id=3, original_id="p4", source_id=1)
    p4.add("title", "Blast: loosely schema blocking")
    p4.add("author", "Giovanni Simonini")
    p4.add("year", "2016")
    collection.add(p4)

    ground_truth = GroundTruth([(0, 3), (1, 2)])
    return DatasetPair(profiles=collection, ground_truth=ground_truth, name="figure1-toy")
