"""Benchmark model families, an external black-box adapter, and the shared
evaluation cache used for cost accounting.

Three builtin families ship with their study input distributions:

* ``borehole`` -- 8 uniform inputs, one LF variant.
* ``ishigami`` -- 3 uniform inputs on ``[-pi, pi]``, three LF variants.
* ``short_column`` -- 2 uniform + 3 normal inputs, five LF variants.

External executables are wrapped through a line-oriented wire protocol:
one request line of space-separated physical coordinates, one response line
holding a single decimal. ``oneshot`` mode spawns one process per request,
running up to as many at once as this process may use CPUs (so they must
not share scratch files); ``stream`` mode keeps a long-lived child answering
line-for-line, and pipelines a batch's requests, so the child must answer
each line in order and flush. Both modes run in one ``selectors`` loop and
read replies by one rule: each output line answers the next row, and after
the last reply only blank lines may follow. A batch returns its values in
row order, and a failure raises :class:`ModelError` naming the node and
quoting the child's stderr tail, with no child of the batch left running.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import selectors
import shlex
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .orthopoly import Normal, Uniform, VariableSpec

log = logging.getLogger(__name__)


class ModelError(RuntimeError):
    """Model evaluation failure, carrying the offending node coordinates."""


@dataclass(frozen=True)
class Model:
    """A deterministic scalar model run in this process. :class:`ExternalModel`
    has the same ``id``, ``batch`` and ``close``, and goes wherever it does."""

    id: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def batch(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(X)), dtype=float)

    def close(self) -> None:
        """Nothing to end: the model runs in this process."""


# --- borehole ---------------------------------------------------------------

BOREHOLE_SPECS = [
    VariableSpec("r_w", Uniform(0.05, 0.15)),
    VariableSpec("r_a", Uniform(100.0, 50000.0)),
    VariableSpec("T_u", Uniform(63700.0, 115600.0)),
    # Upper bound 1110 (not 1100): the reference Sobol table has identical
    # indices for H_u and H_l, which requires equal interval widths.
    VariableSpec("H_u", Uniform(990.0, 1110.0)),
    VariableSpec("T_l", Uniform(63.1, 116.0)),
    VariableSpec("H_l", Uniform(700.0, 820.0)),
    VariableSpec("L", Uniform(1120.0, 1680.0)),
    VariableSpec("K_w", Uniform(9855.0, 12045.0)),
]


def _borehole(X: np.ndarray, numerator: float, offset: float) -> np.ndarray:
    r_w, r_a, T_u, H_u, T_l, H_l, L, K_w = X.T
    log_ratio = np.log(r_a / r_w)
    if np.any(log_ratio <= 0):
        bad = X[log_ratio <= 0][0]
        raise ModelError(f"borehole requires r_a > r_w, got node {tuple(bad)}")
    denom = log_ratio * (
        offset + 2.0 * L * T_u / (log_ratio * r_w**2 * K_w) + T_u / T_l
    )
    return numerator * T_u * (H_u - H_l) / denom


def borehole_hf(X: np.ndarray) -> np.ndarray:
    return _borehole(X, 2.0 * math.pi, 1.0)


def borehole_lf(X: np.ndarray) -> np.ndarray:
    return _borehole(X, 5.0, 1.5)


# --- Ishigami ---------------------------------------------------------------

ISHIGAMI_SPECS = [
    VariableSpec(f"xi_{i}", Uniform(-math.pi, math.pi)) for i in (1, 2, 3)
]


def ishigami_fn(X: np.ndarray, a: float = 7.0, b: float = 0.1, offset: float = 0.0) -> np.ndarray:
    x1, x2, x3 = X.T
    return np.sin(x1) + a * np.sin(x2) ** 2 + b * x3**4 * np.sin(x1) + offset


_ISHIGAMI_VARIANTS = {
    "hf": dict(a=7.0, b=0.1),
    "lf1": dict(a=7.3, b=0.08),
    "lf2": dict(a=7.3, b=0.04),
    "lf3": dict(a=7.3, b=0.04, offset=0.02),
}


# --- short column -----------------------------------------------------------

SHORT_COLUMN_SPECS = [
    VariableSpec("b", Uniform(5.0, 15.0)),
    VariableSpec("h", Uniform(15.0, 25.0)),
    VariableSpec("P", Normal(500.0, 100.0)),
    VariableSpec("M", Normal(2000.0, 400.0)),
    VariableSpec("Y", Normal(5.0, 0.5)),
]


def _short_column(X: np.ndarray, variant: str) -> np.ndarray:
    b, h, P, M, Y = X.T
    if np.any(b * h * Y == 0):
        bad = X[b * h * Y == 0][0]
        raise ModelError(f"short_column division by zero at node {tuple(bad)}")
    base = 1.0 - 4.0 * M / (b * h**2 * Y) - (P / (b * h * Y)) ** 2
    if variant == "hf":
        return base
    if variant == "lf1":
        return 1.0 - 4.0 * P / (b * h**2 * Y) - (P / (b * h * Y)) ** 2
    if variant == "lf2":
        return 1.0 - 4.0 * M / (b * h**2 * Y) - (M / (b * h * Y)) ** 2
    k = {"lf3": 4.0, "lf4": 0.4, "lf5": 40.0}[variant]
    return base - k * (P - M) / (b * h * Y)


# --- registry ---------------------------------------------------------------

BENCHMARK_SPECS = {
    "borehole": BOREHOLE_SPECS,
    "ishigami": ISHIGAMI_SPECS,
    "short_column": SHORT_COLUMN_SPECS,
}


def builtin_model(problem: str, fidelity: str) -> Model:
    """Look up a builtin model, e.g. ``builtin_model("ishigami", "lf1")``."""
    key = f"{problem}/{fidelity}"
    if problem == "borehole" and fidelity in ("hf", "lf"):
        fn = borehole_hf if fidelity == "hf" else borehole_lf
        return Model(id=key, fn=fn)
    if problem == "ishigami" and fidelity in _ISHIGAMI_VARIANTS:
        params = _ISHIGAMI_VARIANTS[fidelity]
        return Model(id=key, fn=lambda X, p=params: ishigami_fn(X, **p))
    if problem == "short_column" and (
        fidelity == "hf" or fidelity in ("lf1", "lf2", "lf3", "lf4", "lf5")
    ):
        return Model(id=key, fn=lambda X, v=fidelity: _short_column(X, v))
    raise KeyError(f"unknown builtin model {key!r}")


# --- external processes -----------------------------------------------------

#: Request lines encoded per write to a child, so a batch is never held as
#: one string.
_STREAM_CHUNK_ROWS = 64
#: Bytes read from a child's pipe per ready event, and kept of its stderr.
_READ_BYTES = 8192
#: Lines of a failed child's stderr quoted in its ModelError.
_STDERR_LINES = 5


def _format_request(xi) -> str:
    return " ".join(f"{c:.17g}" for c in xi)


def _node(xi) -> tuple:
    """A node as a tuple of floats, as error messages name it."""
    return tuple(np.asarray(xi, dtype=float).tolist())


def _usable_cpus() -> int:
    """The CPUs this process may run on: the most oneshot children kept in
    flight, so ``taskset -c 0`` runs them one at a time."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


class _Child:
    """One external process, answering a range of a batch's rows as the
    selectors loop of :meth:`ExternalModel.batch` calls :meth:`on_ready`.

    Its requests go out in chunks of :data:`_STREAM_CHUNK_ROWS` lines, and
    each line of its stdout answers the next row; after the last reply,
    blank lines are ignored and any other line is malformed. Its stderr is
    read as it comes, keeping a bounded tail. A oneshot child's stdin is
    closed after its request, and it is done once it has exited; the stream
    child is done once its rows are answered, and stays for the next batch.
    """

    def __init__(self, command: str, oneshot: bool):
        self.command, self.oneshot = command, oneshot
        argv, pipe = shlex.split(command), subprocess.PIPE
        self.proc = subprocess.Popen(argv, stdin=pipe, stdout=pipe, stderr=pipe, bufsize=0)
        self.pipes = (self.proc.stdin, self.proc.stdout, self.proc.stderr)
        for pipe in self.pipes:
            os.set_blocking(pipe.fileno(), False)
        self.stderr = b""
        self.open: list = []  # the pipes registered with the batch's selector

    def start(self, rows: range, X: np.ndarray, values: np.ndarray, selector) -> None:
        """Take the rows ``rows`` of ``X``, whose replies go to ``values``."""
        self.rows, self.X, self.values, self.selector = rows, X, values, selector
        self.sent = self.answered = rows.start
        self.pending, self.partial = memoryview(b""), b""
        self.open = [pipe for pipe in self.pipes if not pipe.closed]
        for pipe in self.open:
            event = selectors.EVENT_WRITE if pipe is self.proc.stdin else selectors.EVENT_READ
            selector.register(pipe, event, self)

    @property
    def row(self) -> int:
        """The row a failure is at: the next to answer, or the last one."""
        return min(self.answered, self.rows.stop - 1)

    def _drop(self, *pipes) -> None:
        for pipe in pipes:
            self.selector.unregister(pipe)
            self.open.remove(pipe)

    def on_ready(self, pipe) -> bool:
        """Move the bytes ``pipe`` is ready for; True once the child is done.
        Raises :class:`ModelError` for a bad reply, a closed output or a
        non-zero exit."""
        if pipe is self.proc.stdin:
            if not self.pending:
                chunk = self.X[self.sent : min(self.sent + _STREAM_CHUNK_ROWS, self.rows.stop)]
                lines = "".join(_format_request(xi) + "\n" for xi in chunk.tolist())
                self.pending = memoryview(lines.encode())
                self.sent += len(chunk)
            try:
                self.pending = self.pending[os.write(pipe.fileno(), self.pending) :]
            except BrokenPipeError:
                self.pending, self.sent = self.pending[:0], self.rows.stop  # its output tells
            if not self.pending and self.sent == self.rows.stop:
                self._drop(pipe)
                if self.oneshot:
                    pipe.close()
            return False
        data = os.read(pipe.fileno(), _READ_BYTES)
        if pipe is self.proc.stderr:
            self.stderr = (self.stderr + data)[-_READ_BYTES:]
        else:
            *lines, self.partial = (self.partial + data).split(b"\n")
            for line in lines:
                self._reply(line)
        if not data:
            self._drop(pipe)
            pipe.close()
            if pipe is self.proc.stdout:
                if self.partial:
                    self._reply(self.partial)  # the end of output ends a last line
                if not self.oneshot and self.answered < self.rows.stop:
                    raise ModelError(
                        f"external model {self.command!r} closed its output "
                        f"at node {_node(self.X[self.answered])}"
                    )
        if not self.oneshot and self.answered == self.rows.stop:
            self._drop(*self.open)  # it stays for the next batch
        if self.open:
            return False
        if self.oneshot and self.proc.wait() != 0:
            raise ModelError(
                f"external model {self.command!r} failed at node {_node(self.X[self.row])}: "
                f"exit status {self.proc.returncode}"
            )
        if self.answered < self.rows.stop:
            self._reply(b"")  # no reply is a blank one
        return True

    def _reply(self, line: bytes) -> None:
        raw = line.decode(errors="replace")
        if self.answered == self.rows.stop:
            if raw.strip():
                raise self._bad_reply("malformed response", raw)
            return
        try:
            value = float(raw)
        except ValueError:
            raise self._bad_reply("malformed response", raw) from None
        if not math.isfinite(value):
            raise self._bad_reply("non-finite output", raw)
        self.values[self.answered] = value
        self.answered += 1

    def late_line(self) -> str | None:
        """The first non-blank line the stream child wrote after the last
        reply of its previous batch, read without blocking; None if none."""
        data, stdout = self.partial, self.proc.stdout
        with contextlib.suppress(BlockingIOError):
            while not stdout.closed and not data.strip():
                if not (chunk := os.read(stdout.fileno(), _READ_BYTES)):
                    break
                data += chunk
        self.partial = b""
        lines = data.decode(errors="replace").splitlines()
        return next((line.strip() for line in lines if line.strip()), None)

    def _bad_reply(self, kind: str, raw: str) -> ModelError:
        node = _node(self.X[self.row])
        return ModelError(f"{kind} {raw.strip()!r} from external model at node {node}")

    def failed(self, exc: ModelError) -> ModelError:
        """Kill and reap the child; ``exc`` quoting the last lines of its stderr."""
        self.reap()
        lines = self.stderr.decode(errors="replace").strip().splitlines()
        tail = " | ".join(line.strip() for line in lines[-_STDERR_LINES:])
        return ModelError(f"{exc}; stderr: {tail}") if tail else exc

    def reap(self, kill: bool = True) -> None:
        """End the child, reap it and close its pipes. A kill is at once, and
        keeps what it had written to stderr. Otherwise its input is closed and
        its output drained while it has 10 s to exit, after which it is killed."""
        self._drop(*self.open)
        if not kill:
            with contextlib.suppress(subprocess.TimeoutExpired):
                self.proc.communicate(timeout=10)
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
            # Keep what it wrote to stderr: read to the end, or until the pipe
            # is empty while a grandchild holds it open.
            stderr = self.proc.stderr
            with contextlib.suppress(BlockingIOError):
                while not stderr.closed and (data := os.read(stderr.fileno(), _READ_BYTES)):
                    self.stderr = (self.stderr + data)[-_READ_BYTES:]
        for pipe in self.pipes:
            pipe.close()


class ExternalModel:
    """Subprocess-backed model honoring the line-oriented wire protocol.

    One :meth:`batch` runs its evaluations in one single-threaded
    ``selectors`` loop over :class:`_Child` processes. In oneshot mode each
    row has its own child, up to :func:`_usable_cpus` at once; in stream
    mode the one persistent child (``_proc``) gets every row, its requests
    written in bounded chunks while its replies are read back. Either way
    the values come back in row order. A failure raises :class:`ModelError`
    for the lowest failing row, quoting the child's stderr tail, with no
    child of the batch left running; a failed stream child is replaced in
    the next batch. :meth:`close` ends the stream child, reading its output
    while it exits.
    """

    def __init__(self, command: str, mode: str = "oneshot", id: str | None = None):
        if mode not in ("oneshot", "stream"):
            raise ValueError(f"unknown protocol mode {mode!r}")
        self.id = command if id is None else id
        self.command = command
        self.mode = mode
        self._proc: _Child | None = None

    def batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the rows of ``X``. Children start in row order. After a
        failure no child starts and those of higher rows are killed; those
        of lower rows finish, since one of them may fail too, and the lowest
        failing row is raised.

        Before the first request of a stream batch, the child's stdout is
        drained without blocking, and a non-blank line there is a malformed
        response: a line written after the last reply of the previous batch.
        A line that arrives after this drain is read as the reply to the
        batch's first row; the protocol carries no request ids to tell them
        apart."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        oneshot = self.mode == "oneshot"
        if self._proc is not None and (late := self._proc.late_line()) is not None:
            child, self._proc = self._proc, None
            raise child.failed(
                ModelError(
                    f"malformed response {late!r} from external model {self.command!r} "
                    "after the last reply of its previous batch"
                )
            )
        if self._proc is not None and self._proc.proc.poll() is not None:
            self._proc.reap()  # the stream child has exited; a fresh one starts
            self._proc = None
        width = _usable_cpus() if oneshot else 1
        values = np.empty(len(X))
        failures: dict[int, ModelError] = {}
        running: dict[int, _Child] = {}  # by their first row
        started = 0
        with selectors.DefaultSelector() as selector:
            try:
                while True:
                    while len(running) < width and started < len(X) and not failures:
                        rows = range(started, started + 1 if oneshot else len(X))
                        try:
                            # The stream child leaves _proc, and is back once done.
                            child, self._proc = self._proc or _Child(self.command, oneshot), None
                        except OSError as exc:
                            failures[started] = ModelError(
                                f"cannot start external model {self.command!r} "
                                f"at node {_node(X[started])}: {exc}"
                            )
                        else:
                            child.start(rows, X, values, selector)
                            running[started] = child
                        started = rows.stop
                    if not running:
                        break
                    for key, _ in selector.select():
                        child = key.data
                        # A child ended earlier in this round of events is skipped.
                        if running.get(child.rows.start) is not child:
                            continue
                        try:
                            if child.on_ready(key.fileobj):
                                del running[child.rows.start]
                                self._proc = None if oneshot else child
                        except ModelError as exc:
                            del running[child.rows.start]
                            failures[child.row] = child.failed(exc)
                            for later in [r for r in running if r > min(failures)]:
                                running.pop(later).reap()
            finally:
                for child in running.values():
                    child.reap()
        if failures:
            raise failures[min(failures)]
        return values

    def close(self) -> None:
        """End the stream child: close its input and drain its output while
        it has 10 s to exit, then kill it if it has not."""
        child, self._proc = self._proc, None
        if child is not None:
            child.reap(kill=False)


# --- evaluation cache -------------------------------------------------------

class CacheFileError(ValueError):
    """A persisted cache file that cannot be read back."""


def _cache_keys(X: np.ndarray) -> np.ndarray:
    """Cache keys of the rows of ``X``: the float64 bytes of each row, with
    -0.0 folded into 0.0, one fixed-width ``np.void`` per row. Two rows are
    one node only when their coordinates are bit-identical, as the grid's
    integer ids gather them; the ``%.17g`` records of a cache file read
    back to the same bits."""
    keys = np.ascontiguousarray(X + 0.0)
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``keys`` in sorted order, the position in ``keys`` of
    each one's first occurrence, and each key's position among them: what
    ``np.unique(keys, return_index=True, return_inverse=True)`` returns,
    from one stable argsort and one sorted copy. When the keys are
    distinct, the sorted copy and the argsort are the first two results."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    if new.all():
        return keys, order, inverse
    return keys[new], order[new], inverse


class EvalCache:
    """Memoizes (model, node) evaluations and counts distinct evaluations,
    a node being the exact bits of its coordinates (:func:`_cache_keys`).

    The store holds, per model id and dimension, the sorted
    :func:`_cache_keys` of the nodes seen and their values. A batch is
    deduplicated by :func:`_first_occurrences`, the one rule for which of
    a key's rows counts, and looked up with ``np.searchsorted``. With a
    persistence path, existing records are loaded on construction (the
    last record of a key wins) and the fresh evaluations of each batch are
    appended after the model returns, one ``model_id<TAB>coords<TAB>value``
    record per line.
    """

    def __init__(self, path: str | Path | None = None):
        self.store: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
        self.counters: dict[str, int] = {}
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            self._load(self.path)

    def _load(self, path: Path) -> None:
        """Read every record; a malformed line raises :class:`CacheFileError`
        naming the file and its 1-based line number. A last line with no
        newline is a record cut short by a crash, even if it parses: it is
        dropped with a warning and cut from the file, so that the next
        append starts a line of its own."""
        records: dict[tuple[str, int], tuple[list, list]] = {}
        complete = 0  # bytes up to the end of the last complete line
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.decode(errors="replace").rstrip("\n")
                if not raw.endswith(b"\n"):
                    log.warning("%s: dropped the unterminated last line %r", path, line)
                    break
                complete += len(raw)
                if not line:
                    continue
                try:
                    model_id, coords, value = line.split("\t")
                    xi = [float(c) for c in coords.split()]
                    y = float(value)
                    if not xi:
                        raise ValueError("no coordinates")
                except ValueError:
                    raise CacheFileError(
                        f"{path}:{lineno}: malformed cache record {line!r}"
                    ) from None
                rows, values = records.setdefault((model_id, len(xi)), ([], []))
                rows.append(xi)
                values.append(y)
        if complete < path.stat().st_size:
            os.truncate(path, complete)
        for slot, (rows, values) in records.items():
            # Reversed, a key's first record is the last one written.
            keys, last, _ = _first_occurrences(_cache_keys(np.array(rows[::-1], dtype=float)))
            self.store[slot] = keys, np.array(values[::-1], dtype=float)[last]

    def _append_records(self, model_id: str, X: np.ndarray, values) -> None:
        if self.path is None:
            return
        lines = "".join(
            f"{model_id}\t{_format_request(xi)}\t{value:.17g}\n" for xi, value in zip(X, values)
        )
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(lines)

    def evaluate_many(self, model: Model, X: np.ndarray) -> np.ndarray:
        """Evaluate ``model`` at rows of ``X`` (physical coordinates),
        paying only for nodes not seen before. Rows sharing a key are paid
        once, at their first occurrence, and in the order of those.

        Besides ``X`` and the result, a batch holds its keys and their
        sorted copy until it is deduplicated, then one sorted copy and a
        few integers per row. The model is handed ``X`` itself when every
        row is a fresh distinct node, else a gather of the rows to pay. An
        empty store takes the batch's sorted keys and values as they are;
        a non-empty one gets them inserted."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        slot = (model.id, X.shape[1])
        keys, first, inverse = _first_occurrences(_cache_keys(X))
        known, known_values = self.store.get(slot, (keys[:0], np.empty(0)))
        at = np.searchsorted(known, keys)
        hit = at < len(known)
        hit[hit] = known[at[hit]] == keys[hit]
        values = np.empty(len(keys))
        values[hit] = known_values[at[hit]]
        missing = np.flatnonzero(~hit)
        if len(missing):
            rows = np.sort(first[missing])
            new = X if len(rows) == len(X) else X[rows]
            fresh = np.asarray(model.batch(new), dtype=float)
            if fresh.shape != (len(rows),):
                raise ModelError(
                    f"model {model.id!r} returned shape {fresh.shape} for {len(rows)} nodes"
                )
            values[inverse[rows]] = fresh
            self._append_records(model.id, new, fresh.tolist())
            self.counters[model.id] = self.counters.get(model.id, 0) + len(rows)
            if len(known):
                at = at[missing]
                self.store[slot] = (
                    np.insert(known, at, keys[missing]),
                    np.insert(known_values, at, values[missing]),
                )
            else:  # every key is a miss; ``values`` is not the returned array
                self.store[slot] = keys, values
        return values[inverse]

    def count(self, model_id: str) -> int:
        return self.counters.get(model_id, 0)
