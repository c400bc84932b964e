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

The graph is stored both as a :class:`networkx.MultiDiGraph` (for inspection
and tests) and as integer triplet arrays (for TransR training).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..space.hyperparams import HP_GRID, METHOD_HPS
from ..space.strategy import StrategySpace

if TYPE_CHECKING:
    import networkx as nx

RELATIONS = ("R1", "R2", "R3", "R4", "R5")

ENTITY_TYPES = ("strategy", "method", "hyperparameter", "setting", "technique")


def _setting_id(hp: str, value: object) -> str:
    return f"{hp}={value}"


@dataclass
class KnowledgeGraph:
    """The compression-strategy knowledge graph G."""

    graph: nx.MultiDiGraph
    entity_index: Dict[str, int]
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
        return [
            name
            for name, attrs in self.graph.nodes(data=True)
            if attrs.get("entity_type") == entity_type
        ]

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph({self.num_entities} entities, "
            f"{len(self.triplets)} triplets)"
        )


def build_knowledge_graph(space: StrategySpace) -> KnowledgeGraph:
    """Construct G for every strategy in ``space``."""
    # networkx is imported here, not at module level: it is the slowest
    # import of the package and only graph construction needs it.
    import networkx as nx

    graph = nx.MultiDiGraph()
    entity_index: Dict[str, int] = {}
    triplet_list: List[Tuple[int, int, int]] = []
    relation_index = {r: i for i, r in enumerate(RELATIONS)}

    def entity(name: str, entity_type: str) -> int:
        if name not in entity_index:
            entity_index[name] = len(entity_index)
            graph.add_node(name, entity_type=entity_type)
        return entity_index[name]

    def add(head: int, relation: str, tail: int, head_name: str, tail_name: str) -> None:
        triplet_list.append((head, relation_index[relation], tail))
        graph.add_edge(head_name, tail_name, key=relation, relation=relation)

    # Static skeleton: methods, hyperparameters, settings, techniques.
    for label in space.method_labels:
        method_node = entity(label, "method")
        from ..compression import get_method

        for technique in get_method(label).techniques:
            te_node = entity(technique, "technique")
            add(method_node, "R4", te_node, label, technique)
        for hp in METHOD_HPS[label]:
            hp_node = entity(hp, "hyperparameter")
            add(method_node, "R3", hp_node, label, hp)
            for value in HP_GRID[hp]:
                setting = _setting_id(hp, value)
                setting_node = entity(setting, "setting")
                # R5 edges are added once per (hp, setting) pair.
                if not graph.has_edge(hp, setting, key="R5"):
                    add(hp_node, "R5", setting_node, hp, setting)

    # One strategy node per point of the space.
    strategy_entities: Dict[str, int] = {}
    for strategy in space:
        identifier = strategy.identifier
        node = entity(identifier, "strategy")
        strategy_entities[identifier] = node
        add(node, "R1", entity_index[strategy.method_label],
            identifier, strategy.method_label)
        for hp, value in strategy.hp_items:
            setting = _setting_id(hp, value)
            add(node, "R2", entity_index[setting], identifier, setting)

    return KnowledgeGraph(
        graph=graph,
        entity_index=entity_index,
        relation_index=relation_index,
        triplets=np.asarray(triplet_list, dtype=np.int64),
        strategy_entities=strategy_entities,
    )
