#!/usr/bin/env python3
"""Run the three-way complementarity comparison on synthetic data.

Builds a corpus where n-gram signal and mock-LLM signal live on disjoint
row subsets, trains the fusion model plus both single-signal baselines, and
prints the eval accuracies side by side. The fused model should clear both
baselines by a wide margin.

Usage:
    python3 scripts/run_complementarity.py [--rows 2000] [--seed 7]
"""

from __future__ import annotations

import argparse
import time

import scorefusion as sf


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=40)
    args = ap.parse_args()

    start = time.perf_counter()
    data = sf.make_complementary_data(n_rows=args.rows, seed=args.seed)
    schema = data.train.schema
    mode = sf.TaskMode.MULTI_CLASS
    cfg = sf.AutoFusionConfig(
        label_columns=schema.labels,
        llm_providers=(sf.ProviderConfig(provider_id="mock"),),
        encoder=sf.EncoderConfig(dim=32, buckets=2 ** 13, lr_small=0.02),
        fusion=sf.FusionConfig(hidden_sizes=(32,), epochs=args.epochs,
                               lr_high=0.15, train_batch_size=32, seed=42),
        validation_fraction=0.0,
    )
    provider = lambda: sf.MockProvider(data.mock_table, schema)
    targets = [row.target for row in data.eval.rows]

    model, record = sf.fit(data.train, cfg, providers=[provider()])
    fusion = sf.evaluate(model, data.eval, providers=[provider()]).accuracy

    enc_model, _ = sf.fit_encoder_baseline(data.train, cfg)
    enc_preds = sf.predict_encoder_baseline(enc_model, data.eval.texts())
    enc = sf.compute_metrics(enc_preds.decided, targets,
                             mode, schema.labels).accuracy

    scores = sf.score_batch(data.eval.texts(), schema, mode,
                            cfg.llm_providers[0], provider=provider())
    llm_preds = sf.llm_only_predict([scores], mode)
    llm = sf.compute_metrics(llm_preds.decided, targets,
                             mode, schema.labels).accuracy

    elapsed = time.perf_counter() - start
    print(f"rows={args.rows} classes={schema.K} seed={args.seed} "
          f"epochs={args.epochs}")
    print(f"final train loss: {record.epoch_logs[-1]['train_loss']:.4f}")
    print()
    print(f"  encoder-only accuracy: {enc:.3f}")
    print(f"  llm-only accuracy:     {llm:.3f}")
    print(f"  fusion accuracy:       {fusion:.3f}")
    print()
    print(f"fusion beats best single signal by "
          f"{fusion - max(enc, llm):+.3f} ({elapsed:.1f}s)")


if __name__ == "__main__":
    main()
