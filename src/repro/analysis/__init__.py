"""repro.analysis — alias analysis, program order and dominance,
buffer ownership."""

from .alias import CONTAINER, CONTROL, MEMORY, AliasGraph, Mutation, TSet
from .dominance import ProgramOrder, enclosing_node_in_block

__all__ = ["AliasGraph", "TSet", "Mutation", "MEMORY", "CONTROL",
           "CONTAINER", "ProgramOrder", "enclosing_node_in_block"]
