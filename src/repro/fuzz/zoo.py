"""The regression zoo: content-addressed specimens with provenance.

Every automaton the fuzzer ever finds interesting becomes a permanent
regression test: a JSON file under ``corpus/zoo/`` holding the
protocol's constructor recipe (the same recipe pickling uses) plus
provenance (seed, generator version, why the specimen is in the zoo).
Files are content-addressed by :func:`specimen_digest` of the canonical
recipe, so re-finding a known specimen is a no-op and two checkouts
agree on every filename.

Serialization is canonical and byte-stable: tables are emitted as
sorted pair lists (JSON objects only allow string keys), ``json.dumps``
runs with ``sort_keys`` and a fixed indent, and decoding re-encodes to
the identical bytes -- the zoo replay test asserts this for every
checked-in file, so a hand-edited specimen that drifts from canonical
form fails CI instead of silently addressing a different protocol.

Only JSON-native hashables (None, bool, int, str) may appear in states,
values and responses; anything else raises :class:`ZooError` at encode
time rather than producing a file that cannot round-trip.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ReproError
from repro.model.table import TableProtocol

#: Bump together with any change to the canonical encoding below.
ZOO_FORMAT_VERSION = 1

#: Filename stem length: 16 hex chars of the sha-256 recipe digest.
DIGEST_STEM = 16


class ZooError(ReproError):
    """A specimen cannot be encoded, decoded, or found."""


def _check_scalar(value: Any, where: str) -> Any:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise ZooError(
        f"{where} value {value!r} is not zoo-serializable (only None, "
        "bool, int and str survive the JSON round trip)"
    )


def _pair_key(pair: List[Any]) -> str:
    """A deterministic sort key for heterogeneous JSON pairs."""
    return json.dumps(pair, sort_keys=True)


def protocol_to_dict(protocol: TableProtocol) -> Dict[str, Any]:
    """The canonical JSON form of a table protocol's constructor recipe."""
    if not isinstance(protocol, TableProtocol):
        raise ZooError(
            f"only TableProtocol specimens live in the zoo, got "
            f"{type(protocol).__name__}"
        )
    initial = sorted(
        ([_check_scalar(value, "initial input"), int(state)]
         for value, state in protocol.initial.items()),
        key=_pair_key,
    )
    rules = sorted(
        ([int(state), [rule[0], int(rule[1])]
          + [_check_scalar(v, "rule") for v in rule[2:]]]
         for state, rule in protocol.rules.items()),
        key=_pair_key,
    )
    transitions = sorted(
        ([int(state), _check_scalar(response, "response"), int(target)]
         for (state, response), target in protocol.transitions.items()),
        key=_pair_key,
    )
    defaults = sorted(
        ([int(state), int(target)]
         for state, target in protocol.defaults.items()),
        key=_pair_key,
    )
    decisions = sorted(
        ([int(state), _check_scalar(value, "decision")]
         for state, value in protocol.decisions.items()),
        key=_pair_key,
    )
    kinds = sorted(
        ([int(reg), str(kind)] for reg, kind in protocol.kinds.items()),
        key=_pair_key,
    )
    return {
        "n": protocol.n,
        "registers": protocol.registers,
        "name": protocol.name,
        "initial_memory": _check_scalar(
            protocol.initial_memory, "initial_memory"
        ),
        "initial": initial,
        "rules": rules,
        "transitions": transitions,
        "defaults": defaults,
        "decisions": decisions,
        "kinds": kinds,
    }


def protocol_from_dict(payload: Dict[str, Any]) -> TableProtocol:
    """Rebuild a table protocol from its canonical JSON form."""
    try:
        return TableProtocol(
            n=int(payload["n"]),
            registers=int(payload["registers"]),
            initial={value: state for value, state in payload["initial"]},
            rules={
                state: tuple(rule) for state, rule in payload["rules"]
            },
            transitions={
                (state, response): target
                for state, response, target in payload["transitions"]
            },
            defaults={
                state: target for state, target in payload["defaults"]
            },
            decisions={
                state: value for state, value in payload["decisions"]
            },
            initial_memory=payload.get("initial_memory"),
            name=str(payload.get("name", "table")),
            kinds={reg: kind for reg, kind in payload.get("kinds", [])},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ZooError(f"malformed zoo specimen payload: {exc}") from exc


def _feed(h, obj) -> None:
    """Feed a tagged, length-prefixed encoding of ``obj`` into ``h``.

    Only the shapes :func:`specimen_digest` hashes are encodable: ints,
    strings and tuples of them.  Every file name in ``corpus/zoo`` was
    derived from this exact encoding.
    """
    if isinstance(obj, tuple):
        h.update(b"(%d:" % len(obj))
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        h.update(b"s%d:" % len(data))
        h.update(data)
    elif isinstance(obj, int) and not isinstance(obj, bool):
        h.update(b"i%d;" % obj)
    else:
        raise ZooError(f"cannot digest a {type(obj).__name__} value")


def specimen_digest(protocol: TableProtocol) -> str:
    """Content address of a specimen: sha-256 of the canonical recipe."""
    recipe = protocol_to_dict(protocol)
    h = hashlib.sha256()
    _feed(
        h,
        (
            ZOO_FORMAT_VERSION,
            tuple(
                (key, json.dumps(recipe[key], sort_keys=True))
                for key in sorted(recipe)
            ),
        ),
    )
    return h.hexdigest()


def _canonical_bytes(document: Dict[str, Any]) -> bytes:
    return (
        json.dumps(document, sort_keys=True, indent=2, ensure_ascii=True)
        + "\n"
    ).encode("ascii")


@dataclass
class Specimen:
    """One zoo entry: protocol recipe, digest, provenance, file path."""

    digest: str
    protocol_dict: Dict[str, Any]
    provenance: Dict[str, Any]
    path: Optional[Path] = None

    def build(self) -> TableProtocol:
        return protocol_from_dict(self.protocol_dict)

    @property
    def tag(self) -> str:
        return str(self.provenance.get("tag", ""))

    def document(self) -> Dict[str, Any]:
        return {
            "format": ZOO_FORMAT_VERSION,
            "kind": "zoo-specimen",
            "digest": self.digest,
            "protocol": self.protocol_dict,
            "provenance": self.provenance,
        }

    def to_bytes(self) -> bytes:
        return _canonical_bytes(self.document())


class Zoo:
    """A directory of content-addressed specimens."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    # -- writing ------------------------------------------------------------
    def add(
        self, protocol: TableProtocol, provenance: Dict[str, Any]
    ) -> "tuple[Specimen, bool]":
        """Persist ``protocol``; returns (specimen, newly_added).

        Adding an already-present digest is a no-op (the original
        provenance is kept: the first finder wins, later campaigns only
        confirm the specimen is still known).
        """
        digest = specimen_digest(protocol)
        path = self.root / f"{digest[:DIGEST_STEM]}.json"
        if path.exists():
            return self.load(path), False
        specimen = Specimen(
            digest=digest,
            protocol_dict=protocol_to_dict(protocol),
            provenance=dict(provenance),
            path=path,
        )
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_bytes(specimen.to_bytes())
        tmp.replace(path)
        return specimen, True

    # -- reading ------------------------------------------------------------
    def load(self, path) -> Specimen:
        path = Path(path)
        try:
            raw = path.read_bytes()
            document = json.loads(raw)
        except (OSError, ValueError) as exc:
            raise ZooError(f"cannot read specimen {path}: {exc}") from exc
        if document.get("kind") != "zoo-specimen":
            raise ZooError(f"{path} is not a zoo specimen file")
        specimen = Specimen(
            digest=str(document.get("digest", "")),
            protocol_dict=document.get("protocol", {}),
            provenance=document.get("provenance", {}),
            path=path,
        )
        rebuilt = specimen.build()
        actual = specimen_digest(rebuilt)
        if actual != specimen.digest:
            raise ZooError(
                f"{path} claims digest {specimen.digest[:DIGEST_STEM]} but "
                f"its recipe hashes to {actual[:DIGEST_STEM]}: the file was "
                "edited without re-addressing it"
            )
        return specimen

    def specimens(self) -> List[Specimen]:
        """All specimens, sorted by digest (deterministic order)."""
        if not self.root.is_dir():
            return []
        out = [
            self.load(path) for path in sorted(self.root.glob("*.json"))
        ]
        out.sort(key=lambda s: s.digest)
        return out

    def find(self, prefix: str) -> Specimen:
        """The unique specimen whose digest starts with ``prefix``."""
        matches = [
            s for s in self.specimens() if s.digest.startswith(prefix)
        ]
        if not matches:
            raise ZooError(f"no specimen matches digest prefix {prefix!r}")
        if len(matches) > 1:
            raise ZooError(
                f"digest prefix {prefix!r} is ambiguous "
                f"({len(matches)} matches)"
            )
        return matches[0]

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))


def default_zoo_root() -> Path:
    """``corpus/zoo`` under the current working directory."""
    return Path("corpus") / "zoo"


def iter_protocols(zoo: Zoo) -> Iterable["tuple[Specimen, TableProtocol]"]:
    for specimen in zoo.specimens():
        yield specimen, specimen.build()
