"""Using the compression methods directly (no search).

The library doubles as a compression toolbox: each of the six methods can be
applied to a model with hand-picked hyperparameters, exactly like the
paper's human baselines.  This example prunes a small VGG with Network
Slimming and LeGR, distils it with LMA, and compares the outcomes — all with
real training on a synthetic dataset.

Run:  python examples/single_method_compression.py        (~1-2 minutes)
"""

import copy

from repro.analysis import profile_model
from repro.compression import ExecutionContext, get_method
from repro.data import tiny_dataset
from repro.models import vgg8_tiny
from repro.nn import Trainer, evaluate_accuracy


def main() -> None:
    data = tiny_dataset(num_classes=4, num_samples=160, image_size=8, seed=0)
    train, val = data.split(0.75, seed=1)

    base = vgg8_tiny(num_classes=4)
    trainer = Trainer(lr=0.05, batch_size=32, seed=0)
    trainer.fit(base, train, epochs=3)
    base_profile = profile_model(base, (3, 8, 8))
    base_acc = evaluate_accuracy(base, val)
    print(f"baseline: {base_profile}, accuracy {base_acc:.3f}")
    print()

    recipes = {
        "NS":   {"HP1": 0.4, "HP2": 0.3, "HP6": 0.9},
        "LeGR": {"HP1": 0.4, "HP2": 0.3, "HP6": 0.9, "HP7": 0.5, "HP8": "l2_weight"},
        "LMA":  {"HP1": 0.5, "HP2": 0.3, "HP4": 3, "HP5": 0.5},
        "HOS":  {"HP1": 0.4, "HP2": 0.3, "HP11": "P1", "HP12": "k34",
                 "HP13": 0.3, "HP14": 1},
    }
    for name, hp in recipes.items():
        model = copy.deepcopy(base)
        ctx = ExecutionContext(
            original_params=base_profile.params,
            pretrain_epochs=3,
            dataset=train,
            val_dataset=val,
            trainer=Trainer(lr=0.05, batch_size=32, seed=0),
        )
        report = get_method(name).apply(model, hp, ctx)
        profile = profile_model(model, (3, 8, 8))
        acc = evaluate_accuracy(model, val)
        pr = 100 * report.params_removed / base_profile.params
        print(
            f"{name:<5s} removed {pr:5.1f}% params -> {profile}, "
            f"accuracy {acc:.3f} ({acc - base_acc:+.3f})"
        )


if __name__ == "__main__":
    main()
