"""Plain-text record format shared by the artifacts the stages exchange, and
the one reader and writer of every YAML document.

One record per line; ``#`` starts a comment. Reading errors raise
``CorruptArtifact`` naming ``path:line``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import yaml

from .errors import CorruptArtifact


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
