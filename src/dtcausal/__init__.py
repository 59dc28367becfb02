"""Decision-theoretic causality toolkit.

Symbolic reasoning over augmented DAGs (stochastic nodes plus
non-stochastic regime indicators), extended conditional independence,
mechanical intention-to-treat node splitting, and a brute-force numeric
oracle over finite discrete multi-regime models.

The package namespace holds only the helpers every module shares (the
input helpers `keyed`, `load_json`, `json_object`, `json_array` and
`json_objects`, and `checked_make` for records), so importing it loads no
submodule; every other name is imported from the module that defines it,
as in ``from dtcausal.graph import Dag``.
"""

import json


def keyed(pairs, repeated) -> dict:
    """A dict of (key, value) pairs; a repeated key raises `repeated(key)`."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise repeated(key)
        out[key] = value
    return out


@classmethod
def checked_make(cls, fields):
    """`_make`, and so `_replace`, through the checks of a namedtuple record's `__new__`."""
    return cls(*fields)


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


def json_objects(value, key: str) -> tuple[dict, ...]:
    """`value` as a tuple if it is a JSON array of objects, else ValueError naming `key` or the entry."""
    return tuple(json_object(entry, f"a {key!r} entry") for entry in json_array(value, repr(key)))
