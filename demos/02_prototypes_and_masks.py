"""Prototypes, similarity emissions, and the two support-derived masks.

A toy two-intent support set shows how the relation mask records which
intent/slot pairs co-occurred and how the transition mask encodes BIO
adjacency; both are all the domain-specific knowledge the model carries.
"""

import numpy as np

from jmrm import (
    EncoderConfig,
    LabelSpace,
    Sample,
    build_relation_mask,
    build_transition_mask,
    compute_emissions,
    compute_prototypes,
    init_encoder,
)


def sample(ls, tokens, intent, slots):
    return Sample(
        tokens=tuple(tokens.split()),
        intent=ls.intent_id(intent),
        slots=tuple(ls.slot_id(x) for x in slots.split()),
    )


def main():
    ls = LabelSpace(
        intents=("play_music", "book_restaurant"),
        slot_labels=("O", "B-artist", "I-artist", "B-city"),
    )
    support = [
        sample(ls, "play the velvet underground", "play_music", "O O B-artist I-artist"),
        sample(ls, "table in lyon", "book_restaurant", "O O B-city"),
    ]
    enc = init_encoder(EncoderConfig(kind="hashed-frozen", dim=16, seed=1))

    protos = compute_prototypes(support, ls, enc)
    print("per-class support counts:")
    print("  intents:", dict(zip(ls.intents, protos.intent_counts)))
    print("  slots:  ", dict(zip(ls.slot_labels, protos.slot_counts)))

    probe = sample(ls, "play something", "play_music", "O O")
    print("\nintent emissions of a query utterance (play_music, book_restaurant):")
    for kind in ("cos", "l2", "vpb"):
        intent = compute_emissions(probe, protos, enc, kind).intent
        print(f"  {kind}: " + "  ".join(f"{v:+.4f}" for v in intent))

    rm = build_relation_mask(support, ls)
    print("\nrelation mask (rows = intents, columns = slot labels):")
    print("  " + "  ".join(f"{x:>9s}" for x in ls.slot_labels))
    for l, name in enumerate(ls.intents):
        row = "  ".join(f"{int(v):>9d}" for v in rm.rm[l])
        print(f"  {row}   {name}")
    print("play_music relates to B-artist but not B-city; O is always related")

    tm = build_transition_mask(ls)
    print("\ntransition mask (1 = allowed, -inf = banned):")
    print("  " + "  ".join(f"{x:>9s}" for x in ls.slot_labels))
    for o1, name in enumerate(ls.slot_labels):
        row = "  ".join(f"{v:>9.0f}" for v in tm.trans[o1])
        print(f"  {row}   after {name}")
    print("I-artist may follow B-artist/I-artist only; nothing opens with an I label:")
    print("  start row:", [f"{v:.0f}" for v in tm.start])

    query = sample(ls, "play lyon", "play_music", "O B-artist")
    em = compute_emissions(query, protos, enc, "vpb")
    print(f"\nquery emissions: intent vector shape {em.intent.shape}, "
          f"slot matrix shape {em.slot.shape}")
    print("ambiguous token 'lyon' scores per slot label:",
          np.round(em.slot[1], 3).tolist())
    print("(the relation mask will remove B-city from consideration once the "
          "intent is play_music)")


if __name__ == "__main__":
    main()
