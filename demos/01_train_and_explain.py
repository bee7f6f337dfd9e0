"""Train a small classifier and explain one prediction six ways.

Generates a synthetic paired dataset, fits the numpy text model, and
prints per-token attribution scores for a held-out sentence using every
supported method.
"""

from explaudit import attribution, dataset, textmodel


def main():
    records = dataset.generate_synthetic_paired(80, injection="LENGTH",
                                                seed=0)
    part = dataset.split(records, ratio=0.8, seed=0)
    train_items = [v for rec in part.train for v in rec.variants()]
    test_items = [v for rec in part.test for v in rec.variants()]

    labels = sorted({lab for _, _, lab in train_items})
    vocab = textmodel.build_vocab([text for _, text, _ in train_items])
    model = textmodel.init_model(len(vocab), seed=0)
    data = [(textmodel.tokenize(vocab, text), labels.index(lab))
            for _, text, lab in train_items]
    model, _ = textmodel.train(model, data, textmodel.TrainConfig(epochs=20, warmup_steps=50))

    correct = sum(
        textmodel.predict(model, textmodel.tokenize(vocab, text))
        .predicted_class
        == labels.index(lab) for _, text, lab in test_items)
    print(f"labels: {labels}   "
          f"test accuracy: {correct / len(test_items):.3f}\n")

    _, sentence, lab = test_items[0]
    target = labels.index(lab)
    print(f"explaining: {sentence!r}   (target class: {lab})\n")
    seq = textmodel.tokenize(vocab, sentence)
    cfg = attribution.AttributionConfig(seed=0)
    columns = [attribution.explain(m, model, seq, target, cfg)
               for m in attribution.METHODS]

    print("token".ljust(12)
          + "".join(m.rjust(9) for m in attribution.METHODS))
    for i, tok in enumerate(columns[0].tokens):
        print(tok.ljust(12)
              + "".join(f"{a.scores[i]:9.3f}" for a in columns))


if __name__ == "__main__":
    main()
