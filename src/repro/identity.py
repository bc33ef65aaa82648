"""Content identity: one canonical encoder, one digest, one registry.

Everything the reproduction keys by *what a value means* — sweep-store
records, feature-cache entries, record checksums — goes through here:

* :func:`encode` / :func:`decode` — the JSON codec.  A dataclass encodes
  as ``{"__type__": class name, **fields}``, tuples as lists and mapping
  keys as strings; :func:`decode` rebuilds value-equal objects and only
  instantiates types registered in :data:`COMPONENTS`, so a stored record
  cannot name an arbitrary class.
* :func:`digest` — the SHA-256 of that encoding as sorted, compact JSON.
  Equal values digest equally, so a digest stands in for object identity.
* :class:`Registry` — named dataclass types of one kind (detectors,
  codec components), resolvable by name, class or instance.  Every class
  any registry accepts is also decodable.

The module imports nothing from :mod:`repro`, so every layer may use it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Type, TypeVar

__all__ = [
    "COMPONENTS",
    "Registry",
    "decode",
    "digest",
    "encode",
    "register_component",
]

#: Key under which :func:`encode` stores a dataclass's type name.
_TYPE_KEY = "__type__"

#: Exact types :func:`encode` passes through unchanged.
_SCALARS = frozenset((str, int, float, bool, type(None)))

#: Field names per dataclass type, filled on first encode.
_FIELDS: Dict[type, Tuple[str, ...]] = {}

T = TypeVar("T", bound=type)


def encode(value: Any) -> Any:
    """The canonical JSON-ready form of a value tree.

    Dataclasses become ``{"__type__": name, **fields}``, lists and tuples
    become lists, mapping keys become strings (before anything sorts
    them, so ``{9: ..., 10: ...}`` and ``{"9": ..., "10": ...}`` encode
    alike) and JSON scalars pass through.  Anything else is a
    ``TypeError``.
    """
    kind = type(value)
    if kind is dict:
        # Keys as ``json`` writes them: 10 -> "10", True -> "true".
        return {
            key if isinstance(key, str) else json.dumps(key): (
                item if type(item) in _SCALARS else encode(item)
            )
            for key, item in value.items()
        }
    if kind is list or kind is tuple:
        return [item if type(item) in _SCALARS else encode(item) for item in value]
    if kind in _SCALARS:
        return value
    names = _FIELDS.get(kind)
    if names is not None:
        encoded = {_TYPE_KEY: kind.__name__}
        for name in names:
            item = getattr(value, name)
            encoded[name] = item if type(item) in _SCALARS else encode(item)
        return encoded
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _FIELDS[kind] = tuple(f.name for f in dataclasses.fields(value))
        return encode(value)
    if isinstance(value, Mapping):
        return encode(dict(value))
    if isinstance(value, (list, tuple)):
        return encode(list(value))
    if isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"cannot encode {kind.__name__!r}: not a dataclass or JSON value")


def decode(data: Any) -> Any:
    """Rebuild :func:`encode` output (after a JSON round trip) as objects.

    JSON arrays decode to tuples: the frozen config dataclasses use tuple
    fields, and dataclass equality tells a list from a tuple.
    """
    if isinstance(data, dict):
        if _TYPE_KEY not in data:
            return {key: decode(item) for key, item in data.items()}
        cls = COMPONENTS.lookup(data[_TYPE_KEY])
        return cls(
            **{key: decode(item) for key, item in data.items() if key != _TYPE_KEY}
        )
    if isinstance(data, list):
        return tuple([decode(item) for item in data])
    return data


def digest(value: Any) -> str:
    """SHA-256 hex digest of ``value``'s canonical encoding.

    The encoding is :func:`encode`'s output as JSON with sorted keys and
    no whitespace, so ``digest(x) == digest(json.loads(json.dumps(x)))``
    for plain data, and equal dataclass trees digest equally.
    """
    text = json.dumps(encode(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Registry:
    """Named dataclass types of one kind.

    ``kind`` names the members in error messages, ``methods`` lists the
    methods every member must implement, and ``key`` is the class
    attribute holding a member's name (``"name"``; the codec table uses
    ``"__name__"``).  Names are unique: re-registering a class is a no-op,
    a different class under a taken name is a ``ValueError``.  Every class
    a registry accepts is also added to :data:`COMPONENTS`, so
    :func:`decode` can rebuild it.
    """

    def __init__(
        self, kind: str, methods: Sequence[str] = (), *, key: str = "name"
    ) -> None:
        self.kind = kind
        self.methods = tuple(methods)
        self.key = key
        self._classes: Dict[str, Type] = {}

    def validate(self, cls: Type) -> str:
        """The registry name of ``cls``; ``TypeError`` if it cannot be a member."""
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            raise TypeError(f"{self.kind} must be a dataclass type, got {cls!r}")
        name = getattr(cls, self.key, None)
        if not isinstance(name, str) or not name:
            raise TypeError(
                f"{self.kind} {cls.__name__} needs a non-empty class-level "
                f"{self.key!r} string"
            )
        for method in self.methods:
            if not callable(getattr(cls, method, None)):
                raise TypeError(f"{self.kind} {cls.__name__} must implement {method}()")
        return name

    def register(self, cls: T) -> T:
        """Class decorator adding ``cls`` to the registry (and the codec)."""
        name = self.validate(cls)
        existing = self._classes.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"{self.kind} name {name!r} is already registered by "
                f"{existing.__module__}.{existing.__qualname__}"
            )
        if self is not COMPONENTS:
            COMPONENTS.register(cls)
        self._classes[name] = cls
        return cls

    def names(self) -> List[str]:
        """Sorted names of every registered class."""
        return sorted(self._classes)

    def lookup(self, name: str) -> Type:
        """The class registered under ``name``."""
        cls = self._classes.get(name)
        if cls is None:
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered {self.kind}s: "
                f"{self.names()}"
            )
        return cls

    def get(self, spec: object) -> Any:
        """Resolve ``spec`` to a member instance.

        A registered name or class gives its default config; a ready
        instance passes through (how tuned variants enter a grid).
        """
        if isinstance(spec, str):
            return self.lookup(spec)()
        if isinstance(spec, type):
            if spec in self._classes.values():
                return spec()
            raise TypeError(
                f"{spec.__name__} is not a registered {self.kind} class; "
                f"decorate it with @register_{self.kind}"
            )
        if dataclasses.is_dataclass(spec) and all(
            callable(getattr(spec, method, None)) for method in self.methods
        ):
            return spec
        raise TypeError(
            f"{self.kind} must be a registered name, a registered class or a "
            f"{self.kind} instance, got {spec!r}"
        )


#: The types :func:`decode` may instantiate, by class name.
COMPONENTS = Registry("component", key="__name__")

#: Make a dataclass decodable (custom path-loss models, layout parts...).
register_component = COMPONENTS.register
