"""The Jedd relational runtime: typed relations over decision diagrams.

This package is the reproduction of the Jedd runtime library (paper
sections 2 and 4): domains, attributes, physical domains, the relation
data type with its full operation set, pluggable BDD/ZDD backends, and
reference-count-managing containers.
"""

from repro.relations.backend import (
    BDDBackend,
    DiagramBackend,
    MultiTerminalBackend,
    PipelineStep,
    ZDDBackend,
)
from repro.relations.containers import RelationContainer
from repro.relations.domain import (
    Attribute,
    Domain,
    JeddError,
    PhysicalDomain,
    RelationScope,
    Universe,
    open_universe,
)
from repro.relations.io import (
    load_checkpoint,
    load_checkpoint_binary,
    load_tsv,
    load_universe,
    save_checkpoint,
    save_checkpoint_binary,
    save_tsv,
    save_universe,
)
from repro.relations.relation import (
    AGGREGATE_OPS,
    CsvFormatError,
    Relation,
    Schema,
    WeightedRelation,
)
from repro.relations import ir
from repro.relations.fixpoint import (
    Atom,
    FixpointEngine,
    Rule,
    execute_rule_plan,
    saturate,
)
from repro.relations.policy import ExecutionPolicy

__all__ = [
    "AGGREGATE_OPS",
    "Atom",
    "execute_rule_plan",
    "ir",
    "load_checkpoint_binary",
    "save_checkpoint_binary",
    "Attribute",
    "BDDBackend",
    "CsvFormatError",
    "DiagramBackend",
    "Domain",
    "ExecutionPolicy",
    "FixpointEngine",
    "JeddError",
    "MultiTerminalBackend",
    "PhysicalDomain",
    "PipelineStep",
    "Relation",
    "RelationContainer",
    "RelationScope",
    "Rule",
    "Schema",
    "Universe",
    "WeightedRelation",
    "ZDDBackend",
    "load_checkpoint",
    "load_tsv",
    "load_universe",
    "open_universe",
    "save_checkpoint",
    "save_tsv",
    "save_universe",
    "saturate",
]
