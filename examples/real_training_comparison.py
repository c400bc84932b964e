"""Mini Table 2 with *everything real*: all four search algorithms compete
on a tiny task with genuine gradient training.

Unlike the paper-scale harness (which uses the calibrated accuracy
surrogate), every number printed here is measured — the base model is
trained on synthetic data, each strategy performs surgery plus real
fine-tuning/distillation, and accuracy comes from a held-out split.

Run:  python examples/real_training_comparison.py        (~5-10 minutes)
"""


from repro.core.api import AutoMC
from repro.core.config import EvaluatorConfig
from repro.core.evaluator import TrainingEvaluator
from repro.core.progressive import ProgressiveConfig
from repro.data import tiny_dataset
from repro.knowledge.embedding import EmbeddingConfig, learn_embeddings
from repro.models import resnet8
from repro.space import StrategySpace

GAMMA = 0.2
BUDGET = 1.2  # simulated GPU-hours; ~40-60 real evaluations per algorithm


def make_evaluator(train, val) -> TrainingEvaluator:
    return TrainingEvaluator(
        lambda: resnet8(num_classes=4), train, val,
        config=EvaluatorConfig(pretrain_epochs=3, seed=0),
    )


def main() -> None:
    data = tiny_dataset(num_classes=4, num_samples=160, image_size=8, seed=0)
    train, val = data.split(0.75, seed=1)
    space = StrategySpace(method_labels=["C2", "C3", "C4"])

    print("learning strategy embeddings (Algorithm 1)...")
    embeddings = learn_embeddings(
        space,
        config=EmbeddingConfig(rounds=1, transr_epochs_per_round=2,
                               nn_exp_epochs_per_round=10),
    )

    progressive_config = ProgressiveConfig(
        sample_size=3, evals_per_round=3, candidate_subsample=len(space)
    )
    # solver registry name -> its per-solver options
    solvers = {
        "progressive": {},
        "evolution": dict(population_size=6, offspring_per_generation=4),
        "rl": {},
        "random": {},
    }

    rows = []
    for solver, solver_kwargs in solvers.items():
        evaluator = make_evaluator(train, val)
        print(f"running {solver} "
              f"(baseline acc {evaluator.base_accuracy:.3f}, "
              f"{evaluator.base_params} params)...")
        result = AutoMC(
            evaluator, space=space, embeddings=embeddings, gamma=GAMMA,
            budget_hours=BUDGET, progressive_config=progressive_config,
            solver=solver, solver_kwargs=solver_kwargs, seed=0,
        ).search()
        rows.append((result.algorithm, result.evaluations, result.best))

    print()
    print(f"{'algorithm':<11s}{'evals':>6s}{'PR%':>8s}{'FR%':>8s}{'acc':>7s}")
    for name, evals, best in rows:
        if best is None:
            print(f"{name:<11s}{evals:>6d}   (no scheme met the target)")
        else:
            print(
                f"{name:<11s}{evals:>6d}{100 * best.pr:>8.1f}"
                f"{100 * best.fr:>8.1f}{best.accuracy:>7.3f}"
            )
    print()
    winner = max((r for r in rows if r[2] is not None), key=lambda r: r[2].accuracy)
    print(f"winner: {winner[0]} with {winner[2]}")


if __name__ == "__main__":
    main()
