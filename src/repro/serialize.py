"""The config wire format: one schema, read off the type hints.

Every configuration dataclass (``SimulationConfig``, each block nested
in it, and ``ServeConfig``) inherits :class:`Config`, whose ``to_dict``
and ``from_dict`` are derived from ``dataclasses.fields`` and
``typing.get_type_hints``.  That is what lets a run be captured as a
*scenario file* (:mod:`repro.scenario`) and embedded verbatim in
provenance sidecars.  One rule per hint shape, none per field:

* **nested config** (``X`` or ``Optional[X]``, ``X`` a :class:`Config`):
  dumped through ``X.to_dict``; loaded from a mapping, or ``None`` when
  the hint is optional.  Anything else raises a :class:`ValueError`
  naming the key and the expected class;
* **tuple of configs** (``Tuple[X, ...]``): a JSON list of mappings,
  one per config;
* **string-keyed pairs** (``Tuple[Tuple[str, V], ...]``): dumped as a
  JSON object; loaded from an object or a list of pairs;
* **other tuples**: dumped as JSON lists, loaded back as tuples;
* every other value passes through unchanged.

``from_dict`` accepts **partial** dicts: a missing key falls back to
the dataclass default, a missing *required* key raises ``"<Cls> dict is
missing required key '<k>'"``, and an unknown key raises naming the
key and the valid field names — a typo in a scenario file must not
silently vanish.  The contract, pinned by property tests:
``Cls.from_dict(cfg.to_dict()) == cfg``.  Each class's hints are
resolved once per process.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from collections.abc import Mapping
from typing import Any, Callable, Dict, Optional, Tuple, Type

#: Converts one field value to or from its JSON form (None: as is).
Codec = Optional[Callable[[Any], Any]]
Codecs = Tuple[Codec, Codec]


class Config:
    """Base of every config dataclass: the hint-driven wire format."""

    __slots__ = ()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dict in field order; round-trips via
        :meth:`from_dict`."""
        out = {}
        for name, (dump, _) in _plan(type(self))[0].items():
            value = getattr(self, name)
            out[name] = value if dump is None else dump(value)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "Config":
        """Build from a (possibly partial) dict, each field converted by
        its hint's rule; an unknown key raises, naming every unknown key
        and the valid choices."""
        codecs, required = _plan(cls)
        if any(key not in codecs for key in data):
            keys = ", ".join(repr(k) for k in sorted(set(data) - set(codecs)))
            raise ValueError(
                f"unknown {cls.__name__} key(s) {keys}; "
                f"valid keys: {', '.join(sorted(codecs))}"
            )
        kwargs = {}
        for key, value in data.items():
            load = codecs[key][1]
            kwargs[key] = value if load is None else load(value)
        for key in required:
            if key not in kwargs:
                raise ValueError(
                    f"{cls.__name__} dict is missing required key {key!r}"
                )
        return cls(**kwargs)


@functools.lru_cache(maxsize=None)
def _plan(cls: Type[Config]) -> Tuple[Dict[str, Codecs], Tuple[str, ...]]:
    """``({field: (dump, load)}, required fields)``, read off *cls*'s
    hints once per process."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return (
        {f.name: _codecs(f.name, hints[f.name]) for f in fields},
        tuple(
            f.name for f in fields
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ),
    )


def _is_config(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, Config)


def _codecs(key: str, hint: Any) -> Codecs:
    """``(dump, load)`` for one field; ``None`` means pass through."""
    args = typing.get_args(hint)
    optional = False
    if typing.get_origin(hint) is typing.Union and type(None) in args:
        optional = True
        (hint,) = [arg for arg in args if arg is not type(None)]
        args = typing.get_args(hint)
    if _is_config(hint):
        return _dump_config, functools.partial(_load_config, key, hint, optional)
    if typing.get_origin(hint) is not tuple:
        return None, None
    item = args[0] if len(args) == 2 and args[1] is Ellipsis else None
    if _is_config(item):
        return (
            lambda value: [config.to_dict() for config in value],
            lambda value: tuple(
                _load_config(key, item, False, config) for config in value
            ),
        )
    if typing.get_origin(item) is tuple and typing.get_args(item)[0] is str:
        return dict, _load_pairs
    return _listify, _tuplify


def _dump_config(value: Optional[Config]) -> Optional[Dict[str, Any]]:
    return None if value is None else value.to_dict()


def _load_config(key: str, cls: Type[Config], optional: bool, value: Any):
    if value is None and optional:
        return value
    if isinstance(value, Mapping):
        return cls.from_dict(value)
    raise ValueError(
        f"{key!r} must be a mapping (a serialized {cls.__name__}), "
        f"got {type(value).__name__}"
    )


def _load_pairs(value: Any) -> Any:
    if isinstance(value, Mapping):
        value = value.items()
    return tuple((name, item) for name, item in value)


def _listify(value: Any) -> Any:
    """Tuples (nested too) as JSON lists; ``None`` stays ``None``."""
    if not isinstance(value, (tuple, list)):
        return value
    return [
        _listify(item) if isinstance(item, (tuple, list)) else item
        for item in value
    ]


def _tuplify(value: Any) -> Any:
    """JSON lists (nested too) back as tuples."""
    if not isinstance(value, (tuple, list)):
        return value
    return tuple([
        _tuplify(item) if isinstance(item, (tuple, list)) else item
        for item in value
    ])
