"""Domain knowledge: knowledge graph, TransR, experience, NN_exp (§3.3.1)."""

from .embedding import EmbeddingConfig, StrategyEmbeddings, learn_embeddings
from .experience import ExperienceRecord, default_experience, nearest_strategy
from .graph import ENTITY_TYPES, RELATIONS, KnowledgeGraph, build_knowledge_graph
from .nn_exp import NNExp, enhance_embeddings
from .transe import TransE, TransEConfig
from .transr import TransR, TransRConfig

__all__ = [
    "ENTITY_TYPES",
    "EmbeddingConfig",
    "ExperienceRecord",
    "KnowledgeGraph",
    "NNExp",
    "RELATIONS",
    "StrategyEmbeddings",
    "TransE",
    "TransEConfig",
    "TransR",
    "TransRConfig",
    "build_knowledge_graph",
    "default_experience",
    "enhance_embeddings",
    "learn_embeddings",
    "nearest_strategy",
]
