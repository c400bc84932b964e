"""Command-line interface: ``python -m repro <command>``.

Commands
--------
search       run AutoMC (or a baseline) on a paper-scale task
table2/3     regenerate the paper's tables
figure4/5/6  regenerate the paper's figures
inspect      print the search-space / knowledge-graph inventory
analyze      statically verify models / checkpoints / schemes
trace        summarize a JSONL run journal (see ``search --journal``)
cache        inspect / prune the persistent result cache (``--cache-dir``)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=float, default=30.0,
                        help="simulated GPU-hours per algorithm (default 30)")
    parser.add_argument("--seed", type=int, default=0)


def _add_static_budget_args(parser: argparse.ArgumentParser) -> None:
    """Static cost-model ceilings (repro.analysis.costmodel S001-S005)."""
    parser.add_argument("--max-params", type=int, default=None,
                        help="S001: reject schemes whose predicted parameter "
                             "count exceeds this cap (no evaluation cost)")
    parser.add_argument("--max-flops", type=int, default=None,
                        help="S002: cap on predicted inference FLOPs")
    parser.add_argument("--max-act-mem", type=int, default=None,
                        help="S003: cap on predicted peak activation bytes")
    parser.add_argument("--max-latency-ms", type=float, default=None,
                        help="S004: cap on the predicted latency proxy (ms)")
    parser.add_argument("--max-weight-mem", type=int, default=None,
                        help="S005: cap on predicted weight storage bytes "
                             "(params x effective weight bits; quantization "
                             "shrinks it without removing parameters)")


def _config(args) -> "ExperimentConfig":
    from .experiments import ExperimentConfig

    return ExperimentConfig(
        budget_hours=args.budget,
        seed=args.seed,
        workers=getattr(args, "workers", 0),
        cache_dir=getattr(args, "cache_dir", None),
        snapshot_dir=getattr(args, "snapshot_dir", None),
        journal=getattr(args, "journal", None),
        max_params=getattr(args, "max_params", None),
        max_flops=getattr(args, "max_flops", None),
        max_act_mem=getattr(args, "max_act_mem", None),
        max_latency_ms=getattr(args, "max_latency_ms", None),
        max_weight_mem=getattr(args, "max_weight_mem", None),
        latency_batch=getattr(args, "latency_batch", None),
    )


def cmd_search(args) -> int:
    from .experiments.common import run_algorithm

    exp = {"exp1": "Exp1", "exp2": "Exp2"}[args.experiment]
    space = None
    if getattr(args, "methods", None):
        from .space import StrategySpace

        space = StrategySpace(method_labels=args.methods.split(","))
    elif getattr(args, "quantization", False):
        from .space import StrategySpace

        space = StrategySpace(include_quantization=True)
    result = run_algorithm(args.solver, exp, _config(args), space=space)
    print(result.summary())
    if result.engine_stats is not None:
        stats = result.engine_stats
        if "workers" in stats:
            foreign = stats.get("cache_foreign_hits", 0)
            print(
                f"engine: {stats['workers']} workers, "
                f"{stats['fresh_evaluations']} fresh evaluations, "
                f"{stats['cache_hits']} persistent-cache hits "
                f"({foreign} written by other runs), "
                f"{stats['steps_replayed']} steps replayed"
            )
        if stats.get("snapshot_hits"):
            print(
                f"snapshots: {stats['snapshot_hits']} prefix resumes, "
                f"{stats['snapshot_steps_saved']} replay steps saved"
            )
        if "budget_pruned" in stats:
            print(
                f"static budget: {stats['budget_pruned']} candidates pruned, "
                f"{stats['budget_rejects']} lint-rejected (all at zero cost)"
            )
        if "latency_violations" in stats:
            print(
                f"measured latency: {stats['latency_violations']} evaluated "
                f"schemes over the --max-latency-ms budget (wall-clock)"
            )
        if stats.get("predicted_evals"):
            print(
                f"cost-model drift over {stats['predicted_evals']} evaluations: "
                f"params {stats['drift_params_pct']:.2f}%, "
                f"flops {stats['drift_flops_pct']:.2f}% (mean absolute)"
            )
        if stats.get("act_mem_evals"):
            peak = stats.get("workspace_bytes_peak", 0.0)
            print(
                f"activation-memory drift over {stats['act_mem_evals']:.0f} "
                f"latency probes: {stats['drift_act_mem_pct']:.2f}% "
                f"(workspace peak {peak / 1024.0:.0f} KiB)"
            )
        if stats.get("weight_bits_mismatches"):
            print(
                f"weight-bits drift: {stats['weight_bits_mismatches']:.0f} "
                f"evaluations where executed precision != predicted"
            )
    print()
    print(f"Pareto schemes with PR >= {result.gamma:.0%}:")
    for r in sorted(result.pareto, key=lambda r: r.pr):
        print(f"  {r}")
    if getattr(args, "journal", None):
        print()
        print(f"run journal written to {args.journal} "
              f"(inspect with: repro trace summarize {args.journal})")
    return 0


def cmd_trace(args) -> int:
    import json

    from .obs import summarize_journal

    journals = [args.journal] + list(getattr(args, "more_journals", []) or [])
    summaries = []
    for path in journals:
        try:
            summaries.append(summarize_journal(path))
        except FileNotFoundError:
            print(f"no such journal: {path}", file=sys.stderr)
            return 2
        except OSError as exc:
            # directories, permission errors, ... — anything unreadable
            print(f"cannot read journal {path}: {exc}", file=sys.stderr)
            return 2
    if args.json:
        payload = (
            summaries[0].to_dict()
            if len(summaries) == 1
            else [s.to_dict() for s in summaries]
        )
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if len(summaries) == 1:
        print(summaries[0].format())
        return 0
    # Multiple journals: group runs by the solver recorded in the header.
    groups: dict = {}
    for summary in summaries:
        groups.setdefault(summary.solver or "unknown", []).append(summary)
    for solver in sorted(groups):
        members = groups[solver]
        cost = sum(s.sim_cost_total for s in members)
        evals = sum(s.fresh_evaluations for s in members)
        rounds = sum(s.rounds for s in members)
        print(
            f"solver {solver}: {len(members)} run(s), {evals} evaluations, "
            f"{rounds} rounds, {cost:.4f} sim-h"
        )
        for summary in members:
            print(f"  {summary.path}: {summary.fresh_evaluations} fresh, "
                  f"{summary.sim_cost_total:.4f} sim-h")
    return 0


def cmd_table2(args) -> int:
    from .experiments import run_table2

    print(run_table2(_config(args)).format())
    return 0


def cmd_table3(args) -> int:
    from .experiments import run_table3

    print(run_table3(_config(args)).format())
    return 0


def cmd_figure(args) -> int:
    from .experiments import run_figure4, run_figure5, run_figure6

    runner = {"4": run_figure4, "5": run_figure5, "6": run_figure6}[args.number]
    print(runner(_config(args)).format())
    return 0


def cmd_report(args) -> int:
    from .experiments.report import run_full_report

    report = run_full_report(
        _config(args),
        output_dir=args.output,
        include_ablations=args.ablations,
    )
    print(report.summary())
    return 0


def cmd_evaluate(args) -> int:
    from .experiments.common import EXPERIMENTS, make_evaluator
    from .space import StrategySpace

    exp = {"exp1": "Exp1", "exp2": "Exp2"}[args.experiment]
    model_name, dataset_name, task = EXPERIMENTS[exp]
    evaluator = make_evaluator(model_name, dataset_name, task, seed=args.seed)
    space = StrategySpace()
    scheme = space.parse_scheme(args.scheme)
    result = evaluator.evaluate(scheme)
    print(result)
    for i, report in enumerate(result.step_reports, 1):
        print(f"  step {i}: {report.method} removed {report.params_removed} params")
    return 0


def cmd_inspect(args) -> int:
    from .knowledge import build_knowledge_graph, default_experience
    from .space import MAX_SCHEME_LENGTH, StrategySpace, grid_size, tree_size

    space = StrategySpace()
    print(f"strategy space: {len(space)} strategies over {space.method_labels}")
    for label in space.method_labels:
        print(f"  {label}: {grid_size(label)} strategies")
    print(f"scheme tree (L={MAX_SCHEME_LENGTH}): {tree_size(len(space)):.3e} schemes")
    records = default_experience()
    print(f"experience records: {len(records)}")
    if args.graph:
        graph = build_knowledge_graph(space)
        print(graph)
        for entity_type in ("strategy", "method", "hyperparameter", "setting", "technique"):
            print(f"  {entity_type}: {len(graph.entities_of_type(entity_type))}")
    return 0


def _analyze_space(args, input_shape) -> int:
    """``repro analyze space``: how much of S a static budget eliminates."""
    import numpy as np

    from .analysis.costmodel import Budget, S_RULES, SchemeCostModel
    from .models import available_models, create_model
    from .space import MAX_SCHEME_LENGTH, StrategySpace
    from .space.scheme import CompressionScheme

    budget = Budget(
        max_params=args.max_params,
        max_flops=args.max_flops,
        max_act_mem=args.max_act_mem,
        max_latency_ms=args.max_latency_ms,
        max_weight_mem=args.max_weight_mem,
    )
    if budget.is_null:
        print("analyze space needs at least one cap: --max-params, --max-flops, "
              "--max-act-mem, --max-latency-ms or --max-weight-mem",
              file=sys.stderr)
        return 2
    if args.target_model not in available_models():
        print(f"unknown model {args.target_model!r}; available: "
              f"{', '.join(available_models())}", file=sys.stderr)
        return 2

    model = create_model(args.target_model, num_classes=args.num_classes)
    cost_model = SchemeCostModel(model, input_shape=input_shape)
    base = cost_model.base_prediction
    space = StrategySpace()
    rng = np.random.default_rng(args.seed)

    total = 0
    infeasible = 0
    per_rule: dict = {}
    for _ in range(args.samples):
        # Uniform draw from the scheme tree, mirroring the search baselines'
        # random_scheme(): length 1..L, nominal PR capped at 0.9.
        length = int(rng.integers(1, MAX_SCHEME_LENGTH + 1))
        scheme = CompressionScheme()
        for _ in range(length):
            for _ in range(20):
                strategy = space[int(rng.integers(0, len(space)))]
                if scheme.total_param_step + strategy.param_step <= 0.9:
                    scheme = scheme.extend(strategy)
                    break
        if scheme.is_empty:
            continue
        total += 1
        violations = budget.violations(cost_model.predict(scheme))
        if violations:
            infeasible += 1
            for rule, *_ in violations:
                per_rule[rule] = per_rule.get(rule, 0) + 1

    print(f"scheme space under a static budget — {args.target_model}, "
          f"{total} sampled schemes (seed {args.seed})")
    print(f"  base model: {base.params} params, {base.flops} FLOPs, "
          f"{base.act_mem} peak activation bytes, {base.latency_ms:.3f} ms proxy")
    for key, value in sorted(budget.to_payload().items()):
        if value is not None:
            print(f"  budget {key} = {value}")
    pct = 100.0 * infeasible / max(total, 1)
    print(f"  statically eliminated: {infeasible} / {total} ({pct:.1f}%) "
          f"at zero evaluation cost")
    for rule in sorted(per_rule):
        print(f"    {rule} ({S_RULES[rule]}): {per_rule[rule]}")
    return 0


def cmd_analyze(args) -> int:
    from .analysis import lint_scheme, verify_checkpoint, verify_model
    from .models import available_models, create_model
    from .nn.serialization import load_state
    from .space import StrategySpace

    try:
        input_shape = tuple(int(d) for d in args.input_shape.split(","))
    except ValueError:
        input_shape = ()
    if len(input_shape) != 3:
        print(f"--input-shape must be C,H,W (got {args.input_shape!r})", file=sys.stderr)
        return 2

    if args.model == "space":
        return _analyze_space(args, input_shape)

    if args.model and args.model not in available_models():
        print(f"unknown model {args.model!r}; available: {', '.join(available_models())}",
              file=sys.stderr)
        return 2

    reports = []
    if args.all_models:
        for model_name in available_models():
            model = create_model(model_name, num_classes=args.num_classes)
            reports.append(verify_model(model, input_shape=input_shape, name=model_name))
    elif args.model:
        model = create_model(args.model, num_classes=args.num_classes)
        if args.checkpoint:
            state = load_state(args.checkpoint)
            reports.append(
                verify_checkpoint(
                    state, model, input_shape=input_shape,
                    name=f"{args.model} @ {args.checkpoint}",
                )
            )
        else:
            reports.append(verify_model(model, input_shape=input_shape, name=args.model))
    elif args.checkpoint:
        reports.append(verify_checkpoint(load_state(args.checkpoint), name=args.checkpoint))

    if args.scheme:
        from .analysis import Budget, SchemeCostModel

        space = StrategySpace(include_quantization=True)
        try:
            scheme = space.parse_scheme(args.scheme)
        except ValueError as exc:
            print(f"cannot parse scheme: {exc}", file=sys.stderr)
            return 2
        budget = Budget(
            max_params=args.max_params,
            max_flops=args.max_flops,
            max_act_mem=args.max_act_mem,
            max_latency_ms=args.max_latency_ms,
            max_weight_mem=args.max_weight_mem,
        )
        if budget.is_null:
            reports.append(lint_scheme(scheme))
        else:
            # Budget caps turn linting into budget-feasibility checking
            # against the named model (S001-S004).
            name = args.model or args.target_model
            cost_model = SchemeCostModel(
                create_model(name, num_classes=args.num_classes),
                input_shape=input_shape,
            )
            reports.append(
                lint_scheme(scheme, budget=budget, cost_model=cost_model)
            )

    if not reports:
        print("nothing to analyze: give MODEL, --all-models, --checkpoint or --scheme",
              file=sys.stderr)
        return 2

    failed = False
    for report in reports:
        print(report.format(verbose=args.verbose))
        failed |= report.has_errors or (args.strict and bool(report.warnings))
    return 1 if failed else 0


def _format_cache_stats(stats: dict) -> str:
    lines = [f"cache {stats['cache_dir']}: "
             f"{stats['entries']} entries, {stats['bytes'] / 1e6:.2f} MB"]
    for fp in stats["fingerprints"]:
        lines.append(
            f"  {fp['root']}: {fp['entries']} entries, {fp['bytes'] / 1e6:.2f} MB"
        )
    if "removed" in stats:
        lines.append(f"removed {stats['removed']} entries")
    return "\n".join(lines)


def cmd_cache(args) -> int:
    import json

    from .core.stores import cache_stats, prune_cache

    if args.cache_command == "prune":
        stats = prune_cache(args.cache_dir, args.max_entries)
    else:
        stats = cache_stats(args.cache_dir)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(_format_cache_stats(stats))
    return 0


def cmd_serve(args) -> int:
    import signal

    from .serve import ServeDaemon

    daemon = ServeDaemon(
        args.state_dir,
        workers=args.workers,
        max_jobs=args.max_jobs,
        host=args.host,
        port=args.port,
        snapshot_budget_mb=args.snapshot_budget_mb,
    )

    def _on_sigterm(signum, frame):
        # Crash semantics by design: exit immediately without journalling
        # in-flight jobs, so the next daemon on this state dir recovers them
        # as interrupted/resumable.  Graceful stops go through SIGINT or the
        # protocol 'shutdown' op.
        import os

        os._exit(0)

    signal.signal(signal.SIGTERM, _on_sigterm)
    daemon.start()
    print(
        f"repro serve: listening on {daemon.host}:{daemon.port} "
        f"(state dir {daemon.state_dir}, {args.workers} worker lanes, "
        f"max {args.max_jobs} concurrent jobs)",
        flush=True,
    )
    try:
        daemon.wait()
    except KeyboardInterrupt:
        pass
    daemon.stop()
    return 0


def _job_spec_from_args(args) -> "object":
    import json

    from .serve import JobSpec

    if args.spec:
        with open(args.spec) as handle:
            return JobSpec.from_payload(json.load(handle))
    if not args.experiment:
        print("job submit needs an experiment (exp1/exp2) or --spec FILE",
              file=sys.stderr)
        raise SystemExit(2)
    from .core.config import EvaluatorConfig
    from .experiments.common import EXPERIMENTS

    exp = {"exp1": "Exp1", "exp2": "Exp2"}[args.experiment]
    model_name, dataset_name, task = EXPERIMENTS[exp]
    config = EvaluatorConfig(
        model_name=model_name, dataset_name=dataset_name, task=task, seed=args.seed
    )
    return JobSpec(
        evaluator=config.to_payload(),
        solver=args.solver,
        tenant=args.tenant,
        gamma=args.gamma,
        budget_hours=args.budget,
        max_length=args.max_length,
        seed=args.seed,
        method_labels=args.methods.split(",") if args.methods else None,
    )


def _format_job(job: dict) -> str:
    line = (
        f"{job['job_id']}  {job['state']:<11}  tenant={job['tenant']}  "
        f"solver={job['solver']}  rounds={job['rounds']}  "
        f"evals={job['evaluations']}  cost={job['total_cost']:.4f}h"
    )
    if job.get("error"):
        line += f"  error={job['error']['type']}: {job['error']['message']}"
    if job.get("resumable"):
        line += "  [resumable]"
    return line


def cmd_job(args) -> int:
    import json

    from .serve import ServeClient, ServerError, ServeUnavailable

    try:
        client = ServeClient(args.state_dir)
        command = args.job_command
        if command == "submit":
            job = client.submit(_job_spec_from_args(args))
            print(_format_job(job))
            if args.watch:
                return _watch_job(client, job["job_id"], args.json)
            return 0
        if command == "status":
            job = client.status(args.job_id)
            if args.json:
                print(json.dumps(job, indent=2, sort_keys=True))
            else:
                print(_format_job(job))
            return 0
        if command == "watch":
            return _watch_job(client, args.job_id, args.json)
        if command == "cancel":
            print(_format_job(client.cancel(args.job_id)))
            return 0
        if command == "list":
            jobs = client.list_jobs()
            if args.json:
                print(json.dumps(jobs, indent=2, sort_keys=True))
            else:
                for job in jobs:
                    print(_format_job(job))
                if not jobs:
                    print("no jobs")
            return 0
        if command == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if command == "shutdown":
            client.shutdown()
            print("daemon stopping")
            return 0
        raise ValueError(command)
    except (ServeUnavailable, ServerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _watch_job(client, job_id: str, as_json: bool) -> int:
    import json

    final = None
    for event in client.watch(job_id):
        if as_json:
            print(json.dumps(event, sort_keys=True), flush=True)
        elif event["kind"] == "round":
            print(
                f"{job_id}  round {event['rounds']}: "
                f"{event['evaluations']} evals, {event['total_cost']:.4f}h, "
                f"front size {len(event['pareto'])}",
                flush=True,
            )
        elif event["kind"] in ("snapshot", "done"):
            print(_format_job(event["job"]), flush=True)
        if event["kind"] == "done":
            final = event["job"]
    if final is None:
        print("watch stream ended early", file=sys.stderr)
        return 2
    return 0 if final["state"] == "completed" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AutoMC reproduction — automated model compression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "search",
        help="run one search algorithm on Exp1/Exp2",
        description="Run one solver from the registry (repro.core.solver) on "
                    "Exp1/Exp2 under the shared simulated budget.",
        epilog="examples:\n"
               "  repro search exp1 --solver progressive --budget 8\n"
               "  repro search exp1 --solver sa --budget 2 --journal sa.jsonl\n"
               "  repro search exp2 --solver regevo --workers 4\n"
               "  repro search exp1 --solver amc --budget 2\n"
               "  repro trace summarize sa.jsonl amc.jsonl   # group by solver",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("experiment", choices=["exp1", "exp2"])
    p.add_argument("--solver", default="progressive",
                   choices=["progressive", "random", "evolution", "grid",
                            "rl", "sa", "regevo", "amc"],
                   help="solver registry name (default: progressive, AutoMC)")
    p.add_argument("--workers", type=int, default=0,
                   help="evaluation worker processes (0 = serial, same results)")
    p.add_argument("--cache-dir", dest="cache_dir", default=None,
                   help="persistent result cache; repeated runs skip "
                        "already-evaluated schemes")
    p.add_argument("--snapshot-dir", dest="snapshot_dir", default=None,
                   help="shared prefix-model snapshot store; workers and "
                        "repeated runs resume trained prefixes instead of "
                        "replaying them (results unchanged)")
    p.add_argument("--journal", default=None,
                   help="stream spans/events of the run to this JSONL journal "
                        "(summarize afterwards with 'repro trace summarize')")
    p.add_argument("--methods", default=None,
                   help="comma-separated method labels restricting the space, "
                        "e.g. C3,C8 to compose pruning with post-training "
                        "quantization")
    p.add_argument("--quantization", action="store_true",
                   help="extend the space with the C7/C8 quantization methods")
    p.add_argument("--latency-batch", dest="latency_batch", type=int, default=None,
                   help="measure median wall-clock inference latency at this "
                        "batch size for every evaluated scheme (extra column; "
                        "with --max-latency-ms, violations are counted against "
                        "the measured number too)")
    _add_budget_args(p)
    _add_static_budget_args(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("table2", help="regenerate Table 2")
    _add_budget_args(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("table3", help="regenerate Table 3")
    _add_budget_args(p)
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("figure", help="regenerate Figure 4/5/6")
    p.add_argument("number", choices=["4", "5", "6"])
    _add_budget_args(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("report", help="regenerate every table/figure at once")
    p.add_argument("--output", default="reports", help="artifact directory")
    p.add_argument("--ablations", action="store_true",
                   help="also run the Figure 5 ablation variants")
    _add_budget_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("evaluate", help="evaluate one scheme identifier")
    p.add_argument("experiment", choices=["exp1", "exp2"])
    p.add_argument("scheme", help='e.g. "C3[HP1=0.5,HP2=0.2,HP6=0.9] -> C4[...]"')
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="print search-space inventory")
    p.add_argument("--graph", action="store_true", help="also build the KG")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "analyze",
        help="statically verify models / checkpoints / lint schemes / "
             "measure budget pruning power",
        description="Static analysis: graph verification of registered models, "
                    "checkpoint sanity checks and compression-scheme linting. "
                    "With budget caps (--max-params etc.) schemes are also "
                    "checked for budget feasibility via the abstract cost "
                    "model, and 'repro analyze space' reports how much of the "
                    "scheme space the budget statically eliminates. "
                    "Exits 1 when any report has errors (or warnings with --strict).",
    )
    p.add_argument("model", nargs="?",
                   help="registered model name (see repro.models), or 'space' "
                        "to measure a budget's pruning power over the scheme tree")
    p.add_argument("--all-models", action="store_true",
                   help="verify every registered model")
    p.add_argument("--checkpoint", help=".npz checkpoint to verify "
                   "(against MODEL when given)")
    p.add_argument("--scheme", help='scheme to lint, e.g. "C3[HP1=0.5,...]"')
    p.add_argument("--num-classes", type=int, default=10)
    p.add_argument("--input-shape", default="3,32,32", help="C,H,W (default 3,32,32)")
    p.add_argument("--strict", action="store_true", help="warnings also fail")
    p.add_argument("--verbose", action="store_true", help="also print ok-level notes")
    _add_static_budget_args(p)
    p.add_argument("--target-model", default="resnet56",
                   help="model the cost model interprets schemes against "
                        "(for 'analyze space' and budgeted --scheme linting)")
    p.add_argument("--samples", type=int, default=2000,
                   help="schemes sampled from the tree by 'analyze space'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "trace",
        help="post-hoc analysis of a JSONL run journal",
        description="Summarize a run journal produced by 'repro search --journal' "
                    "or AutoMC(trace=...): span/event counts, wall-time and "
                    "simulated-cost attribution, cache-hit/lint-reject breakdown. "
                    "Works on truncated journals from interrupted runs.",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = trace_sub.add_parser("summarize", help="print a journal summary")
    p.add_argument("journal", help="path to the .jsonl run journal")
    p.add_argument("more_journals", nargs="*", metavar="journal",
                   help="additional journals; runs are grouped by solver")
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant search daemon (see 'repro job')",
        description="Long-lived search-as-a-service daemon: accepts concurrent "
                    "search jobs over a local JSON-lines TCP protocol, sharing "
                    "one warm worker-lane pool and one prefix-snapshot store "
                    "across tenants.  Clients discover the endpoint through "
                    "<state-dir>/serve.json; per-job journals land under "
                    "<state-dir>/journals/.  SIGTERM exits immediately (crash "
                    "semantics — a restart recovers in-flight jobs as "
                    "interrupted); use SIGINT or 'repro job shutdown' for a "
                    "graceful stop.  See docs/serving.md.",
    )
    p.add_argument("--state-dir", default="serve-state",
                   help="journal + snapshot + endpoint directory (default ./serve-state)")
    p.add_argument("--workers", type=int, default=0,
                   help="shared worker lanes for all jobs (0 = each job serial "
                        "on its own thread; results identical)")
    p.add_argument("--max-jobs", type=int, default=4,
                   help="concurrent running jobs (default 4; extras queue)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    p.add_argument("--snapshot-budget-mb", type=float, default=None,
                   help="byte budget of the shared snapshot store")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "job",
        help="submit / inspect / cancel jobs on a 'repro serve' daemon",
        description="Thin client for the serve daemon.  All commands find the "
                    "daemon through --state-dir/serve.json.",
        epilog="examples:\n"
               "  repro serve --state-dir /tmp/svc --max-jobs 4 &\n"
               "  repro job submit exp1 --solver sa --budget 2 --tenant alice\n"
               "  repro job watch job-0001\n"
               "  repro job list\n"
               "  repro job shutdown",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--state-dir", default="serve-state",
                   help="the daemon's state directory (default ./serve-state)")
    job_sub = p.add_subparsers(dest="job_command", required=True)
    ps = job_sub.add_parser("submit", help="submit a search job")
    ps.add_argument("experiment", nargs="?", choices=["exp1", "exp2"],
                    help="paper task to search (or use --spec)")
    ps.add_argument("--spec", default=None,
                    help="full JobSpec JSON file (overrides the other options)")
    ps.add_argument("--solver", default="progressive",
                    choices=["progressive", "random", "evolution", "grid",
                             "rl", "sa", "regevo", "amc"])
    ps.add_argument("--tenant", default="default")
    ps.add_argument("--gamma", type=float, default=0.3)
    ps.add_argument("--budget", type=float, default=1.0,
                    help="simulated GPU-hours for this job (default 1)")
    ps.add_argument("--max-length", type=int, default=5)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--methods", default=None,
                    help="comma-separated method labels restricting the space, "
                         "e.g. C3,C4")
    ps.add_argument("--watch", action="store_true",
                    help="stay attached and stream round progress")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_job)
    for name, help_text in [
        ("status", "one job's state and result"),
        ("watch", "stream a job's round progress until it finishes"),
        ("cancel", "request cooperative cancellation"),
    ]:
        pj = job_sub.add_parser(name, help=help_text)
        pj.add_argument("job_id")
        pj.add_argument("--json", action="store_true")
        pj.set_defaults(func=cmd_job)
    pj = job_sub.add_parser("list", help="every job the daemon knows about")
    pj.add_argument("--json", action="store_true")
    pj.set_defaults(func=cmd_job)
    pj = job_sub.add_parser("stats", help="scheduler + lane-pool counters")
    pj.set_defaults(func=cmd_job)
    pj = job_sub.add_parser("shutdown", help="stop the daemon gracefully")
    pj.set_defaults(func=cmd_job)

    p = sub.add_parser(
        "cache",
        help="inspect / prune the persistent result cache or snapshot store",
        description="Maintenance for the engine's on-disk result cache or "
                    "snapshot store (the directory passed as --cache-dir / "
                    "cache_dir= or snapshot_dir=). 'stats' reports "
                    "per-fingerprint entry/byte counts; 'prune' keeps the "
                    "newest N entries per fingerprint.",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    ps = cache_sub.add_parser("stats", help="report cache size per fingerprint")
    ps.add_argument("cache_dir", help="the cache or snapshot directory")
    ps.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    ps.set_defaults(func=cmd_cache)
    pp = cache_sub.add_parser("prune", help="drop oldest entries over a cap")
    pp.add_argument("cache_dir", help="the cache or snapshot directory")
    pp.add_argument("--max-entries", type=int, required=True,
                    help="entries to keep per fingerprint (oldest pruned first)")
    pp.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    pp.set_defaults(func=cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
