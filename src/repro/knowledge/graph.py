"""Knowledge graph on compression strategies (§3.3.1, Figure 2a).

Five entity types and five relation types:

========  ==========================================================
E1        compression strategy (one node per strategy in the space)
E2        compression method (C1..C6)
E3        hyperparameter (HP1, HP2, ...)
E4        hyperparameter setting (concrete value, e.g. ``HP2=0.2``)
E5        compression technique (TE1..TE9)
R1        strategy -> its method              (E1 -> E2)
R2        strategy -> each of its settings    (E1 -> E4)
R3        method -> each of its hyperparams   (E2 -> E3)
R4        method -> each of its techniques    (E2 -> E5)
R5        hyperparameter -> each setting      (E3 -> E4)
========  ==========================================================

G is stored as arrays: ``entity_index`` maps each name to its id,
``entity_types`` gives each id's type, and ``triplets`` holds the
(head, relation, tail) rows that TransR trains on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..space.hyperparams import HP_GRID, METHOD_HPS
from ..space.strategy import StrategySpace

RELATIONS = ("R1", "R2", "R3", "R4", "R5")

ENTITY_TYPES = ("strategy", "method", "hyperparameter", "setting", "technique")


def _setting_id(hp: str, value: object) -> str:
    return f"{hp}={value}"


@dataclass
class KnowledgeGraph:
    """The compression-strategy knowledge graph G."""

    entity_index: Dict[str, int]  # name -> entity id, in id order
    entity_types: np.ndarray  # (num_entities,) int8 index into ENTITY_TYPES
    relation_index: Dict[str, int]
    triplets: np.ndarray  # (n, 3) int array of (head, relation, tail)
    strategy_entities: Dict[str, int]  # strategy identifier -> entity id

    @property
    def num_entities(self) -> int:
        return len(self.entity_index)

    @property
    def num_relations(self) -> int:
        return len(self.relation_index)

    def entities_of_type(self, entity_type: str) -> List[str]:
        """Names of ``entity_type``'s entities, in id order."""
        if entity_type not in ENTITY_TYPES:
            return []
        names = list(self.entity_index)
        members = np.flatnonzero(self.entity_types == ENTITY_TYPES.index(entity_type))
        return [names[i] for i in members]

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph({self.num_entities} entities, "
            f"{len(self.triplets)} triplets)"
        )


def build_knowledge_graph(space: StrategySpace) -> KnowledgeGraph:
    """Construct G for every strategy in ``space``.

    Entity ids follow first appearance: each method's skeleton (the method,
    its techniques, then each hyperparameter followed by its settings), and
    after all methods one strategy entity per point of ``space`` in index
    order.  Triplets follow the same walk; a strategy contributes its R1
    row, then one R2 row per hyperparameter.
    """
    from ..compression import get_method

    entity_index: Dict[str, int] = {}
    types: List[int] = []
    skeleton: List[Tuple[int, int, int]] = []
    relation_index = {r: i for i, r in enumerate(RELATIONS)}
    r1, r2, r3, r4, r5 = (relation_index[r] for r in RELATIONS)

    def entity(name: str, entity_type: str) -> int:
        if name not in entity_index:
            entity_index[name] = len(entity_index)
            types.append(ENTITY_TYPES.index(entity_type))
        return entity_index[name]

    # Static skeleton: methods, hyperparameters, settings, techniques.
    setting_entities: Dict[str, np.ndarray] = {}  # hp -> its grid's entity ids
    r5_pairs = set()
    for label in space.method_labels:
        method_node = entity(label, "method")
        for technique in get_method(label).techniques:
            skeleton.append((method_node, r4, entity(technique, "technique")))
        for hp in METHOD_HPS[label]:
            hp_node = entity(hp, "hyperparameter")
            skeleton.append((method_node, r3, hp_node))
            settings = [entity(_setting_id(hp, value), "setting") for value in HP_GRID[hp]]
            setting_entities[hp] = np.array(settings, dtype=np.int64)
            for setting_node in settings:
                # R5 rows are added once per (hp, setting) pair.
                if (hp_node, setting_node) not in r5_pairs:
                    r5_pairs.add((hp_node, setting_node))
                    skeleton.append((hp_node, r5, setting_node))

    # One strategy entity per point of the space, numbered in index order.
    base = len(entity_index)
    strategy_entities = dict(zip(space.identifiers, range(base, base + len(space))))
    entity_index.update(strategy_entities)
    if len(entity_index) != base + len(space):
        raise ValueError("strategy identifiers must be unique and distinct from other entities")
    types.extend([ENTITY_TYPES.index("strategy")] * len(space))

    # Per method, one (strategies, 1 + #HPs, 3) block: the R1 row, then R2 rows.
    blocks = [np.asarray(skeleton, dtype=np.int64).reshape(-1, 3)]
    for label in space.method_labels:
        indices, positions = space.grid_positions(label)
        hps = METHOD_HPS[label]
        block = np.empty((len(indices), 1 + len(hps), 3), dtype=np.int64)
        block[:, :, 0] = (base + indices)[:, None]
        block[:, 0, 1] = r1
        block[:, 0, 2] = entity_index[label]
        block[:, 1:, 1] = r2
        for j, hp in enumerate(hps):
            block[:, 1 + j, 2] = setting_entities[hp][positions[:, j]]
        blocks.append(block.reshape(-1, 3))

    return KnowledgeGraph(
        entity_index=entity_index,
        entity_types=np.array(types, dtype=np.int8),
        relation_index=relation_index,
        triplets=np.concatenate(blocks),
        strategy_entities=strategy_entities,
    )
