"""Reading and writing graphs as plain-text edge lists.

Formats supported:

- social edge list: one ``u<TAB>v`` pair per line (HetRec's
  ``user_friends.dat`` style, with an optional header line),
- preference edge list: ``u<TAB>i`` or ``u<TAB>i<TAB>weight`` per line
  (HetRec's ``user_artists.dat`` style).

Lines starting with ``#`` and blank lines are ignored.  Identifiers are
kept as strings unless they parse as integers, in which case they are
converted — this keeps synthetic integer graphs round-trippable.
"""

from __future__ import annotations

import io
import os
from typing import Iterator, List, Optional, TextIO, Tuple, Union

from repro.exceptions import DatasetError
from repro.graph.preference_graph import PreferenceGraph
from repro.graph.social_graph import SocialGraph
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy

__all__ = [
    "read_social_graph",
    "write_social_graph",
    "read_preference_graph",
    "write_preference_graph",
]

PathOrFile = Union[str, "os.PathLike[str]", TextIO]


def _coerce_id(token: str):
    """Parse an identifier token: int when possible, str otherwise."""
    try:
        return int(token)
    except ValueError:
        return token


def _lines(handle, path: Optional[str]) -> Iterator[Tuple[int, str]]:
    """Yield ``(file_line_number, text)`` for every line of ``handle``.

    A path source is read as bytes and decoded one line at a time, so a
    byte that is not UTF-8 is reported on its own line (a text layer
    decodes whole chunks ahead of the line being parsed).  Lines split on
    ``\n``, ``\r\n`` and ``\r``, as text mode's universal newlines do.

    Raises:
        DatasetError: for a line that is not valid UTF-8.
    """
    if not isinstance(handle, io.BufferedIOBase):
        yield from enumerate(handle, start=1)
        return
    lineno = 0
    for chunk in handle:
        for raw in chunk.splitlines():
            lineno += 1
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DatasetError(
                    f"line is not valid UTF-8 (byte {exc.start}: {exc.reason})",
                    path=path,
                    line=lineno,
                ) from None


def _iter_data_lines(handle, path: Optional[str]) -> Iterator[Tuple[int, List[str]]]:
    """Yield ``(file_line_number, fields)`` for every data line.

    Line numbers are 1-based positions in the *file* (comments and blank
    lines included), so error messages point at the real offending line.
    """
    for lineno, raw in _lines(handle, path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, (line.split("\t") if "\t" in line else line.split())


def _open_for_read(source: PathOrFile):
    if hasattr(source, "read"):
        return source, False
    return open(source, "rb"), True


def _source_path(source: PathOrFile) -> Optional[str]:
    """A display path for error context, when one exists."""
    if hasattr(source, "read"):
        name = getattr(source, "name", None)
        return name if isinstance(name, str) else None
    return os.fspath(source)


def _open_for_write(target: PathOrFile):
    if hasattr(target, "write"):
        return target, False
    return open(target, "w", encoding="utf-8"), True


def read_social_graph(
    source: PathOrFile,
    skip_header: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> SocialGraph:
    """Load an undirected social graph from a two-column edge list.

    Args:
        source: path or open text handle.
        skip_header: drop the first non-comment line (HetRec files carry a
            ``userID\tfriendID`` header).
        retry: optional policy retrying transient ``OSError`` failures
            (path sources only — a consumed handle cannot be re-read).

    Raises:
        DatasetError: on malformed or non-UTF-8 lines, carrying the
            source path and the 1-based file line number on ``.path`` /
            ``.line``.
        RetryExhaustedError: when ``retry`` was given and every attempt
            failed with a transient IO error.
    """
    if retry is not None and not hasattr(source, "read"):
        return retry.call(_read_social_graph_once, source, skip_header)
    return _read_social_graph_once(source, skip_header)


def _read_social_graph_once(source: PathOrFile, skip_header: bool) -> SocialGraph:
    path = _source_path(source)
    fault_point("io.read_social", path=path)
    handle, should_close = _open_for_read(source)
    try:
        graph = SocialGraph()
        rows = _iter_data_lines(handle, path)
        if skip_header:
            next(rows, None)
        for lineno, fields in rows:
            if len(fields) == 1:
                # Single-column lines record isolated users.
                graph.add_user(_coerce_id(fields[0]))
                continue
            if len(fields) < 2:
                raise DatasetError(
                    f"social edge line needs 2 columns, got {fields!r}",
                    path=path,
                    line=lineno,
                )
            u, v = _coerce_id(fields[0]), _coerce_id(fields[1])
            if u != v:
                graph.add_edge(u, v)
        return graph
    finally:
        if should_close:
            handle.close()


def write_social_graph(graph: SocialGraph, target: PathOrFile) -> None:
    """Write a social graph as a tab-separated edge list (one line per edge).

    Isolated users are recorded as single-column lines so a round trip
    preserves the node set.
    """
    handle, should_close = _open_for_write(target)
    try:
        for u, v in graph.edges():
            handle.write(f"{u}\t{v}\n")
        for u in graph.users():
            if graph.degree(u) == 0:
                handle.write(f"{u}\n")
    finally:
        if should_close:
            handle.close()


def read_preference_graph(
    source: PathOrFile,
    skip_header: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> PreferenceGraph:
    """Load a bipartite preference graph from a 2- or 3-column edge list.

    A missing third column means weight 1.0.

    Args:
        source: path or open text handle.
        skip_header: drop the first non-comment line.
        retry: optional policy retrying transient ``OSError`` failures
            (path sources only).

    Raises:
        DatasetError: on malformed or non-UTF-8 lines, non-numeric
            weights, or invalid edges (a weight must be finite and
            positive), carrying the source path and 1-based file line
            number on ``.path`` / ``.line``.
        RetryExhaustedError: when ``retry`` was given and every attempt
            failed with a transient IO error.
    """
    if retry is not None and not hasattr(source, "read"):
        return retry.call(_read_preference_graph_once, source, skip_header)
    return _read_preference_graph_once(source, skip_header)


def _read_preference_graph_once(
    source: PathOrFile, skip_header: bool
) -> PreferenceGraph:
    from repro.exceptions import EdgeError

    path = _source_path(source)
    fault_point("io.read_preference", path=path)
    handle, should_close = _open_for_read(source)
    try:
        graph = PreferenceGraph()
        rows = _iter_data_lines(handle, path)
        if skip_header:
            next(rows, None)
        for lineno, fields in rows:
            if len(fields) < 2:
                raise DatasetError(
                    f"preference line needs >= 2 columns, got {fields!r}",
                    path=path,
                    line=lineno,
                )
            user, item = _coerce_id(fields[0]), _coerce_id(fields[1])
            if len(fields) >= 3:
                try:
                    weight = float(fields[2])
                except ValueError as exc:
                    raise DatasetError(
                        f"preference line has non-numeric weight {fields[2]!r}",
                        path=path,
                        line=lineno,
                    ) from exc
            else:
                weight = 1.0
            try:
                graph.add_edge(user, item, weight=weight)
            except EdgeError as exc:
                raise DatasetError(
                    f"preference line has an invalid edge: {exc}",
                    path=path,
                    line=lineno,
                ) from exc
        return graph
    finally:
        if should_close:
            handle.close()


def write_preference_graph(graph: PreferenceGraph, target: PathOrFile) -> None:
    """Write a preference graph as a tab-separated ``user item weight`` list."""
    handle, should_close = _open_for_write(target)
    try:
        for user, item, weight in graph.edges():
            handle.write(f"{user}\t{item}\t{weight:g}\n")
    finally:
        if should_close:
            handle.close()
