"""Plain-text record format shared by the artifacts the stages exchange, the
one reader and writer of every YAML document and of a dataclass as a YAML
mapping, and the check of the numbers a configuration file holds.

One record per line; ``#`` starts a comment. An artifact's records come in
the order and number its writer writes them, which ``laid_out`` checks.
Reading errors raise ``CorruptArtifact`` naming ``path:line``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from numbers import Real
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .errors import ConfigError, CorruptArtifact
from .geometry import Pose, frozen, pose_from_seven, pose_to_seven, unit_norms_ok


def float_fields(count: int, sep: str = " ") -> str:
    """The %-template of ``count`` floats at 17 significant digits, so that
    reading them back is exact. A record kind written many times formats all
    its rows through one such template."""
    return sep.join(["%.17g"] * count)


def write_records(path, rows, comment: str | None = None) -> None:
    """Write one record per row after an optional ``# comment`` line. A row is
    a line already formatted, or values joined by spaces: floats get 17
    significant digits, as in ``float_fields``, anything else ``str``."""
    lines = [] if comment is None else [f"# {comment}"]
    lines += [row if isinstance(row, str) else
              " ".join("%.17g" % v if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in lines))


def read_text(path, error: type[Exception] = CorruptArtifact) -> str:
    """The contents of ``path`` as UTF-8 text. A byte that is not text raises
    ``error``, the class the file's role calls for, at ``path:line``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not UTF-8 text "
                    f"(byte {data[exc.start]:#04x}: {exc.reason})") from exc


def read_records(path, sep: str | None = None):
    """Yield ``(lineno, tokens)`` for each record of a plain-text artifact."""
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split(sep)


def read_table(path, rows: list, width: int) -> np.ndarray:
    """The token lists of ``rows``, ``(lineno, tokens)`` pairs of one record
    kind, as an (n, width) array of finite floats. The tokens convert in one
    call and are checked once; only when that fails are the rows walked one
    by one with ``numbers``, to name the first bad one as ``path:line``."""
    try:
        table = np.array([tokens for _, tokens in rows], dtype=float)
    except ValueError:  # a token that is not a number, or rows of unequal width
        table = None
    if table is None or table.shape != (len(rows), width) or not np.isfinite(table).all():
        table = np.array([numbers(path, lineno, tokens, width) for lineno, tokens in rows],
                         dtype=float).reshape(len(rows), width)
    return table


def laid_out(path, rows: list, keys) -> None:
    """Check that ``rows``, the ``(lineno, tokens)`` records of an artifact in
    file order, are laid out as its writer writes them: record k starts with
    the tokens of key k, and there are as many records as keys. ``keys`` is
    any iterable of token lists, walked no further than the rows. A record
    missing, extra, swapped, relabelled, repeated or unknown is
    ``CorruptArtifact`` at the line of the first record out of place; a file
    that stops short names the first record missing."""
    keys = iter(keys)
    for lineno, tokens in rows:
        key = next(keys, None)
        if key is None:
            raise CorruptArtifact(f"{path}:{lineno}: extra record {tokens[0]!r}")
        if tokens[:len(key)] != key:
            raise CorruptArtifact(f"{path}:{lineno}: record {' '.join(tokens[:len(key)])!r} "
                                  f"where {' '.join(key)!r} belongs")
    key = next(keys, None)
    if key is not None:
        raise CorruptArtifact(f"{path}: ends before record {' '.join(key)!r}")


def check_rows(path, rows: list, ok: np.ndarray, problem: str) -> None:
    """Raise ``CorruptArtifact`` at the line of the first of ``rows`` whose
    entry of ``ok`` is false, saying ``problem``."""
    if not ok.all():
        raise CorruptArtifact(f"{path}:{rows[int(np.argmin(ok))][0]}: {problem}")


def check_quaternions(path, rows: list, quats: np.ndarray) -> None:
    """A zero quaternion, or one too large for its norm to be finite, has no
    rotation: ``CorruptArtifact`` at its line."""
    check_rows(path, rows, unit_norms_ok(quats), "quaternion must be finite and nonzero")


@contextmanager
def located(path, lineno: int | None = None):
    """Report a ``ValueError`` or ``IndexError`` as ``CorruptArtifact`` at ``path:lineno``."""
    try:
        yield
    except CorruptArtifact:
        raise
    except (ValueError, IndexError) as exc:
        where = path if lineno is None else f"{path}:{lineno}"
        raise CorruptArtifact(f"{where}: {exc}") from exc


def numbers(path, lineno: int, tokens, count: int, kind=float) -> list:
    """``count`` finite numbers of type ``kind`` from the tokens of record ``path:lineno``."""
    with located(path, lineno):
        if len(tokens) != count:
            raise ValueError(f"expected {count} values, found {len(tokens)}")
        values = [kind(t) for t in tokens]
        for token, value in zip(tokens, values):
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {token!r}")
    return values


def all_real(value) -> bool:
    """Whether every entry of ``value`` is a real number, checked one by one:
    ``np.array(..., dtype=float)`` would take a boolean or a string such as
    "1" as a number."""
    return all(isinstance(v, Real) and not isinstance(v, bool)
               for v in np.asarray(value, dtype=object).flat)


def config_number(name: str, value, kind: type = float, length: int | None = None):
    """A configured ``value`` as a finite ``kind``, int or float, or given
    ``length``, as a read-only array of that many finite floats. Anything
    else, a boolean or a string included, is a ``ConfigError`` naming
    ``name``."""
    items = np.array(value, dtype=object)
    a = items.astype(float) if all_real(items) else np.array(math.nan)
    shape = () if length is None else (length,)
    if (a.shape != shape or not np.isfinite(a).all()
            or kind is int and not float(a).is_integer()):
        want = ("a whole number" if kind is int else "a finite number" if length is None
                else f"a list of {length} finite numbers")
        raise ConfigError(f"{name} must be {want}, got {items.tolist()!r}")
    a = frozen(a, shape, name)
    return a if length is not None else kind(a)


# libyaml's parser and emitter where PyYAML was built with them: the same
# documents and the same text, the parser about seven times faster than the
# pure-Python one on a bundle manifest and the emitter about four times
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def read_yaml(path, error: type[Exception]):
    """The YAML document in ``path``. Text that does not parse raises ``error``,
    the class the file's role calls for, naming ``path:line`` where YAML knows it."""
    text = read_text(path, error)
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = path if mark is None else f"{path}:{mark.line + 1}"
        problem = getattr(exc, "problem", None) or getattr(exc, "reason", exc)
        raise error(f"{where}: bad YAML line: {problem}") from exc


def write_yaml(path, doc) -> None:
    """Write ``doc`` as block-style YAML, keys in insertion order."""
    with open(path, "w") as fh:
        yaml.dump(doc, fh, Dumper=_YAML_DUMPER, sort_keys=False)


# --- dataclasses as YAML mappings ----------------------------------------------------


def from_mapping(cls, doc, prefix: str = ""):
    """The dataclass ``cls`` from ``doc``, a mapping of its field names to values
    as ``to_mapping`` writes them; a key left out takes the field's default. By
    field type (string annotations resolve), a dataclass is a nested mapping, a
    tuple a list of mappings and a ``Pose`` seven numbers; other values, an
    array's list of numbers among them, go to ``cls`` for its own checks. An
    unknown or missing key, or a refused value, is a ``ConfigError`` naming its
    place after ``prefix``: ``section: field`` in a section, ``name[k].field``
    in a list."""
    where = f"{prefix.rstrip(': .')}: " if prefix else ""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}expected a mapping, got {doc!r}")
    types = get_type_hints(cls)
    unknown = [key for key in doc if key not in types]
    if unknown:
        raise ConfigError(f"{where}unknown keys: {sorted(unknown, key=str)}")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where}missing keys: {missing}")
    kwargs = {name: _read_value(types[name], prefix + name, value) for name, value in doc.items()}
    try:
        return cls(**kwargs)
    except (ConfigError, ValueError) as exc:  # the class's own check, naming its field
        raise ConfigError(f"{prefix}{exc}") from exc


def _read_value(kind, path: str, value):
    """``value`` read as a field of type ``kind`` whose place is ``path``."""
    if kind is Pose:
        try:
            return pose_from_seven(config_number(path, value, length=7))
        except ValueError as exc:  # a quaternion of no rotation
            raise ConfigError(f"{path}: {exc}") from exc
    if is_dataclass(kind):
        return from_mapping(kind, value, f"{path}: ")
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return tuple(from_mapping(get_args(kind)[0], v, f"{path}[{k}].")
                     for k, v in enumerate(value))
    return value


def to_mapping(value):
    """``value``, a dataclass, as plain YAML values, keys in field order, as
    ``from_mapping`` reads them."""
    if isinstance(value, Pose):
        return pose_to_seven(value).tolist()
    if is_dataclass(value):
        return {f.name: to_mapping(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [to_mapping(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def load_mapping(cls, path):
    """The dataclass ``cls`` in the YAML file ``path`` (an empty file is an
    empty mapping); an error is a ``ConfigError`` naming ``path``."""
    doc = read_yaml(path, ConfigError)
    try:
        return from_mapping(cls, {} if doc is None else doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
