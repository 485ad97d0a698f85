"""Plain-text record format shared by the artifacts the stages exchange, the
one reader and writer of every YAML document, and the check of the numbers a
configuration file holds.

One record per line; ``#`` starts a comment. Reading errors raise
``CorruptArtifact`` naming ``path:line``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from numbers import Real

import numpy as np
import yaml

from .errors import ConfigError, CorruptArtifact
from .geometry import frozen


def write_records(path, rows, sep: str = " ", comment: str | None = None) -> None:
    """Write one record per row after an optional ``# comment`` line; floats
    get 17 significant digits, so reading them back is exact."""
    with open(path, "w") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        for row in rows:
            fh.write(sep.join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def read_records(path, sep: str | None = None):
    """Yield ``(lineno, tokens)`` for each record of a plain-text artifact."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split(sep)


def first_record(seen: set, kind: str, index: int | None = None) -> None:
    """Note record ``kind [index]`` as read; an artifact that repeats one is corrupt."""
    if (kind, index) in seen:
        raise ValueError(f"repeated {kind}{'' if index is None else f' {index}'} record")
    seen.add((kind, index))


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


def config_number(name: str, value, kind: type = float, length: int | None = None):
    """A configured ``value`` as a finite ``kind``, int or float, or given
    ``length``, as a read-only array of that many finite floats. Anything
    else, a boolean or a string included, is a ``ConfigError`` naming ``name``."""
    # element by element: np.array(..., dtype=float) takes True and "1" as 1.0
    items = np.array(value, dtype=object)
    real = all(isinstance(v, Real) and not isinstance(v, bool) for v in items.flat)
    a = items.astype(float) if real else np.array(math.nan)
    shape = () if length is None else (length,)
    if (a.shape != shape or not np.isfinite(a).all()
            or kind is int and not float(a).is_integer()):
        want = ("a whole number" if kind is int else "a finite number" if length is None
                else f"a list of {length} finite numbers")
        raise ConfigError(f"{name} must be {want}, got {value!r}")
    a = frozen(a, shape, name)
    return a if length is not None else kind(a)


def read_yaml(path, error: type[Exception]):
    """The YAML document in ``path``. Text that does not parse raises ``error``,
    the class the file's role calls for, naming ``path:line`` where YAML knows it."""
    with open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            mark = getattr(exc, "problem_mark", None)
            where = path if mark is None else f"{path}:{mark.line + 1}"
            problem = getattr(exc, "problem", None) or getattr(exc, "reason", exc)
            raise error(f"{where}: bad YAML line: {problem}") from exc


def write_yaml(path, doc) -> None:
    """Write ``doc`` as block-style YAML, keys in insertion order."""
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
