"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Criteria 1-5 drive the inference engine against brute-force enumeration and
finite differences; 6 checks the K-shot support builder; 7-8 reproduce the
mask-ablation trend on a generated cross-domain benchmark; 9 pins slot F1
to a reference conlleval implementation; 10 pins CLI byte-determinism.
"""

import json

import numpy as np
import pytest

from jmrm.cli import main as cli_main
from jmrm.core import LabelSpace, Sample
from jmrm.encoder import EncoderConfig
from jmrm.episodes import SynthSpec, build_episode, build_support_set, generate_synthetic
from jmrm.experiments import ABLATION_GRID, run_cell
from jmrm.metrics import score
from jmrm.oracles import (
    decode_suite,
    emission_gradient_suite,
    encoder_gradient_suite,
    normalization_suite,
    partition_suite,
    shift_invariance_suite,
)
from jmrm.trainer import RunConfig

from conftest import conlleval_counts, random_bio_strings


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_partition_oracle():
    stats = partition_suite(trials=200, seed=20)
    report(1, stats["pass"],
           f"log Z vs enumeration over {stats['trials']} instances, "
           f"max rel err {stats['max_log_z_rel_err']:.2e} (tol 1e-9)")
    assert stats["pass"]


def test_criterion_2_decoding_oracle():
    stats = decode_suite(trials=200, seed=21)
    report(2, stats["pass"],
           f"viterbi vs enumeration argmax over {stats['trials']} instances, "
           f"{stats['argmax_mismatches']} mismatches, "
           f"{stats['constraint_violations']} BIO/RM violations")
    assert stats["pass"]


def test_criterion_3_normalization():
    stats = normalization_suite(trials=200, seed=22)
    report(3, stats["pass"],
           f"sum of probabilities within {stats['max_total_prob_err']:.2e} of 1 "
           f"(tol 1e-6), masked pairs with nonzero mass: "
           f"{stats['masked_pairs_with_nonzero_prob']}")
    assert stats["pass"]


def test_criterion_4_gradient_correctness():
    emission = emission_gradient_suite(trials=50, seed=23)
    end_to_end = encoder_gradient_suite(trials=10, seed=23)
    ok = emission["pass"] and end_to_end["pass"]
    report(4, ok,
           f"finite differences: emission grads max rel err "
           f"{emission['max_rel_err']:.2e} over {emission['trials']} instances, "
           f"encoder grads {end_to_end['max_rel_err']:.2e} over "
           f"{end_to_end['trials']} episodes (tol 1e-4)")
    assert ok


def test_criterion_5_shift_invariance():
    stats = shift_invariance_suite(trials=200, seed=24)
    report(5, stats["pass"],
           f"c=3.7 shifts: max posterior drift {stats['max_posterior_err']:.2e} "
           f"(tol 1e-9), decode changes {stats['decode_changes']}")
    assert stats["pass"]


def test_criterion_6_mini_including():
    rng = np.random.default_rng(25)
    n_corpora = 0
    violations = 0
    for batch in range(34):
        spec = SynthSpec(
            n_source_domains=1, n_dev_domains=1, n_target_domains=1,
            intents_per_domain=int(rng.integers(1, 4)),
            slots_per_intent=int(rng.integers(1, 3)),
            samples_per_domain=int(rng.integers(36, 64)),
            vocab_overlap=float(rng.random()),
            seed=1000 + batch,
        )
        for corpus in (c for split in generate_synthetic(spec) for c in split):
            n_corpora += 1
            intent_req = {s.intent for s in corpus.samples}
            slot_req = {o for s in corpus.samples for o in s.slots}

            def covered(samples, k):
                from collections import Counter

                ints = Counter(s.intent for s in samples)
                slots = Counter(o for s in samples for o in s.slots)
                return all(ints[c] >= k for c in intent_req) and all(
                    slots[c] >= k for c in slot_req
                )

            for k in (1, 2, 5):
                support = build_support_set(corpus, k, rng)
                if not covered(support, k):
                    violations += 1
                for drop in range(len(support)):
                    rest = support[:drop] + support[drop + 1 :]
                    if covered(rest, k):
                        violations += 1
    ok = violations == 0 and n_corpora >= 100
    report(6, ok,
           f"{n_corpora} corpora x K in (1,2,5): coverage + irreducibility, "
           f"{violations} violations")
    assert ok


# --- transfer benchmark (criteria 7 and 8) ----------------------------------

BENCH_SPEC = SynthSpec(
    n_source_domains=8, n_dev_domains=2, n_target_domains=3,
    vocab_overlap=0.7, samples_per_domain=48,
)
BENCH_SHOTS = 5
BENCH_QUERY = 8
BENCH_EPISODES_PER_DOMAIN = 10


@pytest.fixture(scope="module")
def benchmark_results():
    """Mean target-domain joint accuracy per ablation configuration, 5 seeds."""
    accs = {name: [] for name in ("JM", "JMI2S", "JMRM", "JM+RM")}
    for seed in range(5):
        spec = SynthSpec(**{**BENCH_SPEC.__dict__, "seed": seed})
        source, dev, target = generate_synthetic(spec)

        def episodes(corpora, key):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
            return [
                build_episode(c, BENCH_SHOTS, BENCH_QUERY, rng)
                for c in corpora
                for _ in range(BENCH_EPISODES_PER_DOMAIN)
            ]

        train_eps = episodes(source[:2], 0)  # frozen encoder: training is a no-op
        dev_eps = episodes(dev, 1)
        test_eps = episodes(target, 2)
        enc_cfg = EncoderConfig(kind="hashed-frozen", dim=32, seed=seed)
        for name in accs:
            cfg = RunConfig(
                similarity_kind="vpb", max_steps=0, seed=seed, **ABLATION_GRID[name]
            )
            record, _ = run_cell(train_eps, dev_eps, test_eps, cfg, enc_cfg)
            accs[name].append(record["metrics"]["joint_acc"])
    return {name: float(np.mean(vals)) for name, vals in accs.items()}, accs


def test_criterion_7_decoupling_trend(benchmark_results):
    means, _ = benchmark_results
    ordering = means["JMRM"] > means["JMI2S"] > means["JM"]
    margin = means["JMRM"] - means["JM"] >= 0.10
    ok = ordering and margin
    report(7, ok,
           f"5-seed mean target joint acc: JMRM={100*means['JMRM']:.1f} > "
           f"JMI2S={100*means['JMI2S']:.1f} > JM={100*means['JM']:.1f}, "
           f"JMRM-JM gap {100*(means['JMRM']-means['JM']):.1f} pts (need >= 10)")
    assert ok


def test_criterion_8_masks_at_eval_only(benchmark_results):
    means, _ = benchmark_results
    ok = means["JM+RM"] > means["JM"] and means["JMRM"] >= means["JM+RM"]
    report(8, ok,
           f"JM+RM={100*means['JM+RM']:.1f} strictly improves JM="
           f"{100*means['JM']:.1f}; JMRM={100*means['JMRM']:.1f} >= JM+RM")
    assert ok


def test_criterion_9_metrics_oracle():
    ls = LabelSpace(
        ("a",), ("O", "B-artist", "I-artist", "B-city", "I-city", "B-track", "I-track")
    )
    rng = np.random.default_rng(26)
    mismatches = 0
    n_pairs = 0
    for _ in range(120):
        n = int(rng.integers(1, 4))
        golds, preds, gold_strs, pred_strs = [], [], [], []
        for _ in range(n):
            m = int(rng.integers(1, 9))
            g = random_bio_strings(rng, ["artist", "city", "track"], m)
            p = random_bio_strings(rng, ["artist", "city", "track"], m)
            gold_strs.append(g)
            pred_strs.append(p)
            golds.append(Sample(tuple(f"t{j}" for j in range(m)), 0,
                                tuple(ls.slot_id(x) for x in g)))
            preds.append((0, [ls.slot_id(x) for x in p]))
        n_pairs += n
        m_out = score(preds, golds, ls)
        ref = conlleval_counts(gold_strs, pred_strs)
        if (m_out.n_correct_spans, m_out.n_gold_spans, m_out.n_pred_spans) != ref:
            mismatches += 1
    ok = mismatches == 0 and n_pairs >= 100
    report(9, ok, f"slot F1 vs reference conlleval on {n_pairs} prediction/gold "
                  f"pairs, {mismatches} mismatches (exact)")
    assert ok


def test_criterion_10_ablate_determinism(tmp_path):
    cfg = {
        "run": {"similarity_kind": "vpb", "max_steps": 0, "seed": 0},
        "encoder": {"kind": "hashed-frozen", "dim": 24},
        "synth": {"n_source_domains": 2, "n_dev_domains": 1, "n_target_domains": 1,
                  "samples_per_domain": 40, "seed": 3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["gen-synth", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 0
    for split, seed in (("source", 1), ("dev", 2), ("target", 3)):
        assert cli_main([
            "build-episodes", "--corpora", str(tmp_path / "d" / f"{split}.json"),
            "--shots", "5", "--query-size", "5", "--count", "3",
            "--seed", str(seed), "--out", str(tmp_path / f"{split}.json"),
        ]) == 0
    for out in ("r1", "r2"):
        assert cli_main([
            "ablate", "--config", str(cfg_path),
            "--episodes", str(tmp_path / "source.json"),
            "--dev", str(tmp_path / "dev.json"),
            "--test", str(tmp_path / "target.json"),
            "--seeds", "2", "--out", str(tmp_path / out),
        ]) == 0
    identical = all(
        (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        for name in ("ablate_results.json", "report.csv", "report.txt", "manifest.json")
    )
    rows = (tmp_path / "r1" / "report.csv").read_text().splitlines()
    ok = identical and len(rows) == 1 + 15
    report(10, ok, f"two ablate runs byte-identical: {identical}; "
                   f"report rows {len(rows) - 1} (expect 15)")
    assert ok
