"""Core domain types, the BIO slot grammar, the sample rule, the JSON input
boundary, labeled-file I/O, the run-file writer, the episode label-space rule.

A labeled sample is a tokenized utterance with one intent label and one
slot label per token (BIO scheme).  An episode bundles a small labeled
support set with a query set and an episode-local label space.  Label ids
are dense integers in declaration order, so masks and prototype matrices
are index-aligned with the label space.  A label space parses its slot
labels once and owns the BIO rule of which may open a sequence and which
may follow which; the transition mask, span scoring and gold warnings
read it.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

O_LABEL = "O"


class MalformedInput(ValueError):
    """An input file or config violates its JSON schema; message names the source."""


class LabelMismatch(ValueError):
    """A sample uses a label that is absent from its declared label space."""


class LengthMismatch(ValueError):
    """Token and slot sequences (or prediction/gold lists) have different lengths."""


class MalformedLabel(ValueError):
    """A slot label name is neither 'O' nor of the form 'B-<type>' / 'I-<type>'."""


def split_slot_label(name: str) -> tuple[str, str | None]:
    """Split a slot label name into (prefix, type).

    Returns ("O", None) for the outside label, ("B", t) or ("I", t) otherwise.
    Raises MalformedLabel for anything else.
    """
    if name == O_LABEL:
        return ("O", None)
    if len(name) > 2 and name[1] == "-" and name[0] in ("B", "I"):
        return (name[0], name[2:])
    raise MalformedLabel(f"slot label {name!r} is not 'O', 'B-<type>' or 'I-<type>'")


@dataclass(frozen=True)
class LabelSpace:
    """Ordered intent and slot label names; the index of a name is its id.

    Construction parses each slot label once into read-only fields outside
    equality, hash and repr: slot_types (T,) (X of B-X and I-X, "" for O),
    may_start (T,) (O and every B-X may open a sequence), may_follow
    (T, T) ([o1, o2] iff o2 may open a sequence, or is I-X after type X),
    and the name-to-id maps intent_ids and slot_ids.
    """

    intents: tuple[str, ...]
    slot_labels: tuple[str, ...]
    slot_types: np.ndarray = field(init=False, repr=False, compare=False)
    may_start: np.ndarray = field(init=False, repr=False, compare=False)
    may_follow: np.ndarray = field(init=False, repr=False, compare=False)
    intent_ids: Mapping[str, int] = field(init=False, repr=False, compare=False)
    slot_ids: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "intents", tuple(self.intents))
        object.__setattr__(self, "slot_labels", tuple(self.slot_labels))
        if len(self.intents) < 1:
            raise MalformedInput("label space needs at least one intent")
        if len(set(self.intents)) != len(self.intents):
            raise MalformedInput("duplicate intent names in label space")
        if len(set(self.slot_labels)) != len(self.slot_labels):
            raise MalformedInput("duplicate slot label names in label space")
        if O_LABEL not in self.slot_labels:
            raise MalformedInput("label space must contain the 'O' slot label")
        kinds = [split_slot_label(name) for name in self.slot_labels]
        may_start = np.array([prefix != "I" for prefix, _ in kinds])
        # O has no type, and "" never equals a B/I type (those are non-empty)
        slot_types = np.array([stype or "" for _, stype in kinds], dtype=str)
        may_follow = may_start | (slot_types[:, None] == slot_types)
        for name, value in (("slot_types", slot_types), ("may_start", may_start),
                            ("may_follow", may_follow)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        for name, labels in (("intent_ids", self.intents), ("slot_ids", self.slot_labels)):
            object.__setattr__(self, name, MappingProxyType({x: k for k, x in enumerate(labels)}))

    def __reduce__(self):  # a mappingproxy does not pickle: rebuild from the names
        return LabelSpace, (self.intents, self.slot_labels)

    @property
    def n_intents(self) -> int:
        return len(self.intents)

    @property
    def n_slots(self) -> int:
        return len(self.slot_labels)

    @property
    def o_id(self) -> int:
        return self.slot_ids[O_LABEL]

    def intent_id(self, name: str) -> int:
        if name not in self.intent_ids:
            raise LabelMismatch(f"unknown intent {name!r}")
        return self.intent_ids[name]

    def slot_id(self, name: str) -> int:
        if name not in self.slot_ids:
            raise LabelMismatch(f"unknown slot label {name!r}")
        return self.slot_ids[name]


@dataclass(frozen=True)
class Sample:
    """One labeled utterance: tokens, an intent id, and per-token slot ids.

    Construction does not check the sample: the Corpus or Episode that holds
    it does, against its label space (check_samples).
    """

    tokens: tuple[str, ...]
    intent: int
    slots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "slots", tuple(self.slots))

    def __len__(self) -> int:
        return len(self.tokens)


def check_samples(ls: LabelSpace, parts: Mapping[str, Sequence[Sample]]) -> tuple[np.ndarray, np.ndarray]:
    """The sample rule, in one pass over flat arrays: each sample of each
    part (a name such as "episode 'music' support" and its samples) has at
    least one token, one slot id per token, and integer ids (not bools)
    inside ls.  The first bad sample raises LengthMismatch or LabelMismatch
    naming its part and index.  Returns the slot ids end to end (N,) and
    each sample's slot count."""
    samples = [s for part in parts.values() for s in part]
    intents = [s.intent for s in samples]
    slots = list(chain.from_iterable(s.slots for s in samples))
    integer = {t: t is not bool and issubclass(t, (int, np.integer))
               for t in {*map(type, intents), *map(type, slots)}}
    if not all(integer.values()):  # a non-integer id is outside the label space
        intents, slots = ([x if integer[type(x)] else -1 for x in ids] for ids in (intents, slots))
    n_slots = np.array([len(s.slots) for s in samples], dtype=np.intp)
    intent_ids, slot_ids = _id_array(intents), _id_array(slots)
    bad_length = np.array([not 0 < len(s.tokens) == len(s.slots) for s in samples], dtype=bool)
    bad = bad_length | (intent_ids < 0) | (intent_ids >= ls.n_intents)
    bad[np.repeat(np.arange(len(samples)), n_slots)[(slot_ids < 0) | (slot_ids >= ls.n_slots)]] = True
    for n in np.flatnonzero(bad)[:1].tolist():
        name, k = [(name, k) for name, part in parts.items() for k in range(len(part))][n]
        s, where = samples[n], f"{name} sample {k}"
        if bad_length[n]:
            raise LengthMismatch(f"{where}: {len(s.tokens)} tokens vs {len(s.slots)} slots")
        raise LabelMismatch(f"{where}: intent {s.intent} or slots {s.slots} outside "
                            f"{ls.n_intents} intents and {ls.n_slots} slot labels")
    return slot_ids, n_slots


def _id_array(ids: list) -> np.ndarray:
    """Integer ids as intp; an id beyond intp becomes -1, which lies
    outside every label space as it does."""
    try:
        return np.fromiter(ids, np.intp, len(ids))
    except OverflowError:
        lo, hi = np.iinfo(np.intp).min, np.iinfo(np.intp).max
        return np.fromiter((x if lo <= x <= hi else -1 for x in ids), np.intp, len(ids))


def warn_bio_anomalies(ls: LabelSpace, slot_ids: np.ndarray, n_slots: np.ndarray) -> None:
    """Warn of each gold slot id, in sample and position order, that may not
    open its sample or follow its predecessor, given what check_samples
    returns: real corpora contain such annotation noise, so it is no error."""
    pos = np.arange(slot_ids.size) - np.repeat(np.cumsum(n_slots) - n_slots, n_slots)
    ok = np.where(pos == 0, ls.may_start[slot_ids], ls.may_follow[np.roll(slot_ids, 1), slot_ids])
    for sid, i in zip(slot_ids[~ok].tolist(), pos[~ok].tolist()):
        logger.warning("gold BIO anomaly: %s at position %d has no compatible predecessor",
                       ls.slot_labels[sid], i)


@dataclass(frozen=True)
class Episode:
    """A support set, a query set, and the episode-local label space.

    Construction checks its samples as a Corpus does (check_samples),
    without logging their BIO anomalies again."""

    support: tuple[Sample, ...]
    query: tuple[Sample, ...]
    label_space: LabelSpace
    domain_name: str

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "query", tuple(self.query))
        where = f"episode {self.domain_name!r}"
        check_samples(self.label_space, {f"{where} support": self.support,
                                         f"{where} query": self.query})


# --- JSON input boundary -------------------------------------------------
#
# Every JSON input is decoded by parse_json and every config dataclass is
# built by config_from_dict.  Episode files ("episodes"; "support", "query")
# and corpus files ("corpora"; "samples") are labeled files:
# { key: [ { "domain": str, "intents": [str], "slot_labels": [str],
#     list: [ {"tokens": [str], "intent": str, "slots": [str]} ] } ] }
# Slot label names must match the B-/I-/O grammar.  In episode files the
# declared label lists must equal exactly the labels used in the support
# set (plus "O", which is always part of a label space).

# JSON value types per config field annotation (annotations are strings)
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _is_finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def parse_json(data: bytes | str, where: str):
    """Decode UTF-8 and parse JSON whose numbers are all finite (no NaN,
    Infinity or overflowing literal such as 1e400); any failure raises
    MalformedInput naming ``where``."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{where}: not valid UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise MalformedInput(f"{where}: not valid JSON: {exc}") from None


def read_json(path):
    """parse_json over the bytes of a file; errors name the file."""
    with open(path, "rb") as fh:
        return parse_json(fh.read(), str(path))


def config_from_dict(cls, obj, what: str):
    """Build config dataclass ``cls`` from a JSON object; any bad key or value is MalformedInput."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"{what} must be an object")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(obj) - set(types)
    if unknown:
        raise MalformedInput(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in obj.items():
        if type(value) not in _JSON_TYPES[types[key]]:
            raise MalformedInput(f"bad {what}: {key} must be {types[key]}")
        if types[key] == "float" and not _is_finite(value):
            raise MalformedInput(f"bad {what}: {key} must be finite and within float range")
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"bad {what}: {exc}") from None


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise MalformedInput(f"{path}: {msg}")


def _parse_string_list(obj, path: str) -> list[str]:
    _expect(isinstance(obj, list), path, "expected a list")
    for j, item in enumerate(obj):
        _expect(isinstance(item, str), f"{path}[{j}]", "expected a string")
    return list(obj)


def _parse_sample(obj, ls: LabelSpace, path: str) -> Sample:
    _expect(isinstance(obj, dict), path, "expected an object")
    for key in ("tokens", "intent", "slots"):
        _expect(key in obj, path, f"missing key {key!r}")
    tokens = _parse_string_list(obj["tokens"], f"{path}.tokens")
    _expect(len(tokens) >= 1, f"{path}.tokens", "must be non-empty")
    _expect(isinstance(obj["intent"], str), f"{path}.intent", "expected a string")
    slot_names = _parse_string_list(obj["slots"], f"{path}.slots")
    if len(slot_names) != len(tokens):
        raise LengthMismatch(
            f"{path}: {len(tokens)} tokens vs {len(slot_names)} slots"
        )
    try:
        intent = ls.intent_id(obj["intent"])
        slots = tuple(ls.slot_id(name) for name in slot_names)
    except LabelMismatch as exc:
        raise LabelMismatch(f"{path}: {exc}") from None
    return Sample(tokens=tuple(tokens), intent=intent, slots=slots)


def _parse_label_space(obj, path: str) -> LabelSpace:
    intents = _parse_string_list(obj["intents"], f"{path}.intents")
    slot_labels = _parse_string_list(obj["slot_labels"], f"{path}.slot_labels")
    for j, name in enumerate(slot_labels):
        try:
            split_slot_label(name)
        except MalformedLabel as exc:
            raise MalformedInput(f"{path}.slot_labels[{j}]: {exc}") from None
    try:
        return LabelSpace(tuple(intents), tuple(slot_labels))
    except MalformedInput as exc:
        raise MalformedInput(f"{path}: {exc}") from None


def parse_labeled_records(data: bytes | str, source: str, key: str, lists: tuple[str, ...]) -> list:
    """(JSON path, domain, label space, {list name: samples}) per record of a labeled file."""
    root, top = parse_json(data, source), f"{source}: $"
    _expect(isinstance(root, dict), top, "expected a top-level object")
    _expect(key in root, top, f"missing key {key!r}")
    _expect(isinstance(root[key], list), f"{top}.{key}", "expected a list")
    records = []
    for i, obj in enumerate(root[key]):
        path = f"{top}.{key}[{i}]"
        _expect(isinstance(obj, dict), path, "expected an object")
        for name in ("domain", "intents", "slot_labels", *lists):
            _expect(name in obj, path, f"missing key {name!r}")
        _expect(isinstance(obj["domain"], str), f"{path}.domain", "expected a string")
        ls = _parse_label_space(obj, path)
        samples = {}
        for name in lists:
            _expect(isinstance(obj[name], list), f"{path}.{name}", "expected a list")
            samples[name] = tuple(
                _parse_sample(s, ls, f"{path}.{name}[{j}]") for j, s in enumerate(obj[name])
            )
        records.append((path, obj["domain"], ls, samples))
    return records


def episode_label_space(full: LabelSpace, support: Sequence[Sample]) -> LabelSpace:
    """The labels of full that the support set uses, in declaration order.

    'O' is always included: a label space requires it and the all-O
    sequence must stay decodable.
    """
    used_intents = {s.intent for s in support}
    used_slots = {sid for s in support for sid in s.slots}
    used_slots.add(full.o_id)
    intents = tuple(
        name for i, name in enumerate(full.intents) if i in used_intents
    )
    slot_labels = tuple(
        name for i, name in enumerate(full.slot_labels) if i in used_slots
    )
    return LabelSpace(intents, slot_labels)


def remap(sample: Sample, old: LabelSpace, new: LabelSpace) -> Sample:
    return Sample(
        tokens=sample.tokens,
        intent=new.intent_id(old.intents[sample.intent]),
        slots=tuple(new.slot_id(old.slot_labels[sid]) for sid in sample.slots),
    )


def parse_episodes(data: bytes | str, source: str = "<input>") -> list[Episode]:
    """Parse an episode file (UTF-8 JSON) into validated Episode values."""
    episodes: list[Episode] = []
    for path, domain, ls, samples in parse_labeled_records(
        data, source, "episodes", ("support", "query")
    ):
        _expect(len(samples["support"]) >= 1, f"{path}.support", "must be non-empty")
        used = episode_label_space(ls, samples["support"])
        unused = [name for name in ls.intents if name not in used.intents]
        unused += [name for name in ls.slot_labels if name not in used.slot_labels]
        _expect(not unused, path, f"declared labels unused by the support set: {unused}")
        episodes.append(Episode(samples["support"], samples["query"], ls, domain))
    return episodes


def sample_to_dict(sample: Sample, ls: LabelSpace) -> dict:
    return {
        "tokens": list(sample.tokens),
        "intent": ls.intents[sample.intent],
        "slots": [ls.slot_labels[sid] for sid in sample.slots],
    }


def labeled_record(domain: str, ls: LabelSpace, **lists: Sequence[Sample]) -> dict:
    """One record of a labeled file: the domain, the label space, then each sample list."""
    record = {"domain": domain, "intents": list(ls.intents), "slot_labels": list(ls.slot_labels)}
    for name, samples in lists.items():
        record[name] = [sample_to_dict(s, ls) for s in samples]
    return record


def serialize_labeled_records(key: str, records: Iterable[dict]) -> str:
    """A labeled file of records under ``key`` (stable byte layout)."""
    payload = {key: list(records)}
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def serialize_episodes(episodes: Iterable[Episode]) -> str:
    """Serialize episodes to the episode JSON schema (stable byte layout)."""
    return serialize_labeled_records("episodes", (
        labeled_record(ep.domain_name, ep.label_space, support=ep.support, query=ep.query)
        for ep in episodes
    ))


def write_json(path, obj) -> None:
    """Write a run file: standard JSON (a NaN or infinity raises ValueError),
    2-space indent, sorted keys, ASCII escapes, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def load_episode_file(path) -> list[Episode]:
    with open(path, "rb") as fh:
        return parse_episodes(fh.read(), str(path))


def save_episode_file(path, episodes: Iterable[Episode]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_episodes(episodes))
