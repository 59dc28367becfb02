"""Decision-theoretic causality toolkit.

Symbolic reasoning over augmented DAGs (stochastic nodes plus
non-stochastic regime indicators), extended conditional independence,
mechanical intention-to-treat node splitting, and a brute-force numeric
oracle over finite discrete multi-regime models.
"""

import json

from dtcausal.graph import (
    IDLE,
    REGIME,
    STOCHASTIC,
    Dag,
    Edge,
    GraphError,
    Node,
    moral_graph,
    restrict_to_regime,
    surgery,
    topological_order,
    validate,
)
from dtcausal.statements import EciStatement, StatementError, format_statement, parse_statement

__all__ = [
    "IDLE",
    "REGIME",
    "STOCHASTIC",
    "Dag",
    "Edge",
    "EciStatement",
    "GraphError",
    "Node",
    "StatementError",
    "format_statement",
    "load_json",
    "moral_graph",
    "parse_statement",
    "restrict_to_regime",
    "surgery",
    "topological_order",
    "validate",
]


def keyed(pairs, repeated) -> dict:
    """A dict of (key, value) pairs; a repeated key raises `repeated(key)`."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise repeated(key)
        out[key] = value
    return out


def load_json(path):
    """The JSON object at `path`; an object that repeats a key, or a document
    that is not an object, raises ValueError naming it."""
    with open(path) as fh:
        doc = json.load(fh, object_pairs_hook=lambda pairs: keyed(pairs, _repeated_key))
    return json_object(doc, f"the document in {str(path)!r}")


def _repeated_key(key: str) -> ValueError:
    return ValueError(f"JSON object repeats the key {key!r}")


def json_object(value, what: str) -> dict:
    """`value` if it is a JSON object, else ValueError naming it as `what`."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {json.dumps(value)[:40]}")
    return value


def json_array(value, what: str) -> tuple:
    """`value` as a tuple if it is a JSON array, else ValueError naming it as `what`."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, not {json.dumps(value)[:40]}")
    return tuple(value)
