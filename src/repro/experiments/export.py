"""Exporting experiment results as JSON artifacts.

Benchmarks write both human-readable text (``benchmarks/out/*.txt``) and
machine-readable JSON via these helpers, so downstream analysis does not
have to re-parse formatted tables.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..core.evaluator import EvaluationResult


def result_to_dict(result: Optional[EvaluationResult]) -> Optional[Dict]:
    """JSON-serialisable summary of one scheme evaluation."""
    if result is None:
        return None
    return {
        "scheme": result.scheme.identifier,
        "length": result.scheme.length,
        "params": int(result.params),
        "flops": int(result.flops),
        "accuracy": float(result.accuracy),
        "pr": float(result.pr),
        "fr": float(result.fr),
        "ar": float(result.ar),
    }


def table2_to_dict(table2) -> Dict:
    """JSON-serialisable Table 2 (rows + baselines)."""
    return {
        "baselines": {
            exp: result_to_dict(result) for exp, result in table2.base.items()
        },
        "rows": [
            {
                "experiment": row.experiment,
                "block": row.block,
                "algorithm": row.algorithm,
                "result": result_to_dict(row.result),
            }
            for row in table2.rows
        ],
    }


def table3_to_dict(table3) -> Dict:
    """JSON-serialisable Table 3 (cells)."""
    return {
        "cells": [
            {
                "algorithm": cell.algorithm,
                "model": cell.model,
                "experiment": cell.experiment,
                "result": result_to_dict(cell.result),
            }
            for cell in table3.cells
        ]
    }


def write_json(payload: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
