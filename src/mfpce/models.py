"""Benchmark model families, an external black-box adapter, and the shared
evaluation cache, which knows a grid node by its rank among the nodes of
the grids up to its level and counts what a run paid.

Three builtin families ship with their study input distributions, and
:data:`BUILTINS` names each of their variants once, by ``problem/variant``:

* ``borehole`` -- 8 uniform inputs, one LF variant.
* ``ishigami`` -- 3 uniform inputs on ``[-pi, pi]``, three LF variants.
* ``short_column`` -- 2 uniform + 3 normal inputs, five LF variants.

A model has an ``id`` and a ``batch``, and nothing to start or end: a
builtin runs in this process, and an external batch reaps its own children.
Either returns finite values or raises :class:`ModelError`: a builtin's
nan or inf names its first such node, before any of the batch is kept.

External executables are wrapped through a line-oriented wire protocol:
one request line of space-separated physical coordinates, one response line
holding a single decimal. Each batch starts its own children and reaps them
before it returns. ``oneshot`` mode spawns one process per request, running
up to as many at once as this process may use CPUs (so they must not share
scratch files); ``stream`` mode starts one child for the whole batch and
pipelines its requests, so the child must answer each line in order and
flush. Both modes run in one ``selectors`` loop and read replies by one
rule: each output line answers the next row, and after the last reply only
blank lines may follow. A child's replies are final once its output has
ended and it has exited with status 0. A batch returns its values in row
order, and a failure raises :class:`ModelError` naming the node and quoting
the child's stderr tail, with no child of the batch left running. Only an
external batch imports ``subprocess`` and ``selectors``, so a run of builtin
models never loads them.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import shlex
import time
from array import array
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .orthopoly import Normal, Uniform, VariableSpec
from .sparse_grid import grid_size, node_space

log = logging.getLogger(__name__)


class ModelError(RuntimeError):
    """Model evaluation failure, carrying the offending node coordinates."""


def _node(xi) -> tuple:
    """A node as a tuple of floats, as error messages name it."""
    return tuple(np.asarray(xi, dtype=float).tolist())


@dataclass(frozen=True)
class Model:
    """A deterministic scalar model run in this process. :class:`ExternalModel`
    has the same ``id`` and ``batch``, and goes wherever it does."""

    id: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def batch(
        self, X: np.ndarray, on_answered: Callable[[np.ndarray, int], None] | None = None
    ) -> np.ndarray:
        """One finite value per row of ``X``, else a :class:`ModelError`
        naming the shape or the first non-finite node; then, as in
        :meth:`ExternalModel.batch`, ``on_answered(values, len(X))``. The
        function runs with numpy's floating-point warnings off: a nan or an
        inf it makes is this error, not a warning."""
        X = np.atleast_2d(X)
        with np.errstate(all="ignore"):
            values = np.asarray(self.fn(X), dtype=float)
        if values.shape != (len(X),):
            raise ModelError(f"model {self.id!r} returned shape {values.shape} for {len(X)} nodes")
        finite = np.isfinite(values)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ModelError(
                f"non-finite output {float(values[row])!r} from model {self.id!r} "
                f"at node {_node(X[row])}"
            )
        if on_answered is not None:
            on_answered(values, len(X))
        return values


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
        raise ModelError(f"borehole requires r_a > r_w, got node {_node(bad)}")
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


# --- short column -----------------------------------------------------------

SHORT_COLUMN_SPECS = [
    VariableSpec("b", Uniform(5.0, 15.0)),
    VariableSpec("h", Uniform(15.0, 25.0)),
    VariableSpec("P", Normal(500.0, 100.0)),
    VariableSpec("M", Normal(2000.0, 400.0)),
    VariableSpec("Y", Normal(5.0, 0.5)),
]


#: The columns of the load ``P`` and the moment ``M`` in a short-column node.
_P, _M = 2, 3


def _short_column(X: np.ndarray, moment: int = _M, load: int = _P, k: float = 0.0) -> np.ndarray:
    """The limit state ``1 - 4 M / (b h^2 Y) - (P / (b h Y))^2``, with ``M``
    read from column ``moment`` and ``P`` from column ``load``, minus
    ``k (P - M) / (b h Y)`` for a non-zero ``k``."""
    b, h, P, M, Y = X.T
    if np.any(b * h * Y == 0):
        bad = X[b * h * Y == 0][0]
        raise ModelError(f"short_column division by zero at node {_node(bad)}")
    value = 1.0 - 4.0 * X[:, moment] / (b * h**2 * Y) - (X[:, load] / (b * h * Y)) ** 2
    return value - k * (P - M) / (b * h * Y) if k else value


#: The ``k`` of the short-column variants that shift the HF limit state.
_SHORT_COLUMN_K = {"lf3": 4.0, "lf4": 0.4, "lf5": 40.0}


# --- registry ---------------------------------------------------------------

BENCHMARK_SPECS = {
    "borehole": BOREHOLE_SPECS,
    "ishigami": ISHIGAMI_SPECS,
    "short_column": SHORT_COLUMN_SPECS,
}

#: Every builtin model's function, by its ``problem/variant`` name. Its
#: inputs are those of ``BENCHMARK_SPECS[problem]``.
BUILTINS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "borehole/hf": borehole_hf,
    "borehole/lf": borehole_lf,
    "ishigami/hf": ishigami_fn,
    "ishigami/lf1": partial(ishigami_fn, a=7.3, b=0.08),
    "ishigami/lf2": partial(ishigami_fn, a=7.3, b=0.04),
    "ishigami/lf3": partial(ishigami_fn, a=7.3, b=0.04, offset=0.02),
    "short_column/hf": _short_column,
    "short_column/lf1": partial(_short_column, moment=_P),
    "short_column/lf2": partial(_short_column, load=_M),
    **{f"short_column/{v}": partial(_short_column, k=k) for v, k in _SHORT_COLUMN_K.items()},
}


def builtin_model(problem: str, fidelity: str) -> Model:
    """Look up a builtin model, e.g. ``builtin_model("ishigami", "lf1")``."""
    key = f"{problem}/{fidelity}"
    if key not in BUILTINS:
        raise KeyError(f"unknown builtin model {key!r}")
    return Model(id=key, fn=BUILTINS[key])


# --- external processes -----------------------------------------------------

#: Request lines encoded per write to a child, so a batch is never held as
#: one string.
_STREAM_CHUNK_ROWS = 64
#: Bytes read from a child's pipe per ready event, and kept of its stderr.
_READ_BYTES = 8192
#: The longest reply line read. A ``.17g`` float takes about 25 bytes, so a
#: line that grows past this is malformed before its end arrives.
_LINE_BYTES = 4096
#: Characters of a reply, or of a stderr line, quoted in an error message.
_QUOTE_CHARS = 64
#: Lines of a failed child's stderr quoted in its ModelError.
_STDERR_LINES = 5
#: Seconds a child has to end its output and exit, from its last reply or
#: the end of its output, whichever comes first; it is killed after them.
_LINGER_S = 10.0


def _format_request(xi) -> str:
    return " ".join(f"{c:.17g}" for c in xi)


def _quote(line: str, form: Callable[[str], str] = repr) -> str:
    """A line of a child's output, stripped, as an error message quotes it:
    ``form`` of at most :data:`_QUOTE_CHARS` of it, and ``...`` after a cut."""
    line = line.strip()
    text = form(line[:_QUOTE_CHARS])
    return text + "..." if len(line) > _QUOTE_CHARS else text


def _usable_cpus() -> int:
    """The CPUs this process may run on: the most oneshot children kept in
    flight, so ``taskset -c 0`` runs them one at a time."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


class _Child:
    """One external process, started for the range ``rows`` of a batch's
    rows and answering them as the selectors loop of
    :meth:`ExternalModel.batch` calls :meth:`on_ready`: one row in oneshot
    mode, every row in stream mode.

    Its requests go out in chunks of :data:`_STREAM_CHUNK_ROWS` lines, and
    its input is closed after the last one. Each line of its stdout answers
    the next row; after the last reply, blank lines are ignored and any
    other line is malformed. Its stderr is read as it comes, keeping a
    bounded tail. It is done, and its replies final, once its output has
    ended with a reply for each row and it has exited with status 0, which
    it must reach by ``deadline``: :data:`_LINGER_S` after either end.
    """

    def __init__(self, command: str, rows: range, X: np.ndarray, values: np.ndarray, selector):
        """Start ``command`` for the rows ``rows`` of ``X``, whose replies go to ``values``."""
        import selectors
        import subprocess

        argv, pipe = shlex.split(command), subprocess.PIPE
        self.proc = subprocess.Popen(argv, stdin=pipe, stdout=pipe, stderr=pipe, bufsize=0)
        self.command, self.rows, self.X, self.values, self.selector = command, rows, X, values, selector
        self.sent = self.answered = rows.start
        self.pending, self.partial, self.stderr = memoryview(b""), b"", b""
        self.deadline = math.inf
        self.open = [self.proc.stdin, self.proc.stdout, self.proc.stderr]  # the registered pipes
        for pipe in self.open:
            os.set_blocking(pipe.fileno(), False)
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
            pipe.close()

    def on_ready(self, pipe) -> bool:
        """Move the bytes ``pipe`` is ready for; no pipe means the deadline
        has passed. Then, with every pipe closed or past the deadline, wait
        for the exit status until the deadline and reap the child: True if
        it is done or lingered after its last reply, its replies standing.
        Raises :class:`ModelError` for a bad reply, a non-zero exit or an
        output that ends before the last reply."""
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
        elif pipe is not None:
            data = os.read(pipe.fileno(), _READ_BYTES)
            if pipe is self.proc.stderr:
                self.stderr = (self.stderr + data)[-_READ_BYTES:]
            else:
                # Only the new bytes are split; the partial line stays short.
                lines = data.split(b"\n")
                lines[0] = self.partial + lines[0]
                self.partial = lines.pop()
                for line in lines:
                    self._reply(line)
                if len(self.partial) > _LINE_BYTES:
                    self._reply(self.partial)  # over-long: raises before the line ends
            if not data:
                if pipe is self.proc.stdout and self.partial:
                    self._reply(self.partial)  # the end of output ends a last line
                self._drop(pipe)
        if self.answered == self.rows.stop or self.proc.stdout.closed:
            self.deadline = min(self.deadline, time.monotonic() + _LINGER_S)
        # Any pipe can close last: the input does when the child ended its output unread.
        if self.open and pipe is not None:
            return False
        import subprocess

        try:  # the output has ended, so the deadline is set
            status = self.proc.wait(max(self.deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:  # it lingers, and is killed
            status = None
        self.reap()
        if status:  # neither 0 nor None
            raise ModelError(
                f"external model {self.command!r} failed at node {_node(self.X[self.row])}: "
                f"exit status {status}"
            )
        if self.answered < self.rows.stop:
            raise ModelError(
                f"external model {self.command!r} closed its output "
                f"at node {_node(self.X[self.answered])}"
            )
        return True

    def _reply(self, line: bytes) -> None:
        raw = line.decode(errors="replace")
        if len(line) > _LINE_BYTES:
            raise self._bad_reply(f"malformed response of over {_LINE_BYTES} bytes", raw)
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

    def _bad_reply(self, kind: str, raw: str) -> ModelError:
        node = _node(self.X[self.row])
        return ModelError(f"{kind} {_quote(raw)} from external model at node {node}")

    def failed(self, exc: ModelError) -> ModelError:
        """Reap the child; ``exc`` quoting the last lines of its stderr, each
        cut as :func:`_quote` cuts a reply."""
        self.reap()
        lines = self.stderr.decode(errors="replace").strip().splitlines()
        tail = " | ".join(_quote(line, str) for line in lines[-_STDERR_LINES:])
        return ModelError(f"{exc}; stderr: {tail}") if tail else exc

    def reap(self) -> None:
        """Kill the child if it has not been reaped, reap it, keeping what it
        had written to stderr, and close its pipes."""
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        # Read stderr to the end, or until the pipe is empty while a
        # grandchild holds it open.
        stderr = self.proc.stderr
        with contextlib.suppress(BlockingIOError):
            while not stderr.closed and (data := os.read(stderr.fileno(), _READ_BYTES)):
                self.stderr = (self.stderr + data)[-_READ_BYTES:]
        self._drop(*self.open)


class ExternalModel:
    """Subprocess-backed model honoring the line-oriented wire protocol.

    One :meth:`batch` runs its evaluations in one single-threaded
    ``selectors`` loop over :class:`_Child` processes, each started for
    the batch and reaped before it returns. In oneshot mode each row has
    its own child, up to :func:`_usable_cpus` at once; in stream mode one
    child gets every row, its requests written in bounded chunks while its
    replies are read back. Either way the values come back in row order,
    and a child's replies are final only once its output has ended with one
    reply per row and it has exited with status 0, so a stray line fails
    the batch. A failure raises :class:`ModelError` for the lowest failing
    child, quoting its stderr tail, with no child of the batch left
    running. A batch reports the rows answered for good as it goes, which
    is how :class:`EvalCache` keeps them on file.
    """

    def __init__(self, command: str, mode: str = "oneshot", id: str | None = None):
        if mode not in ("oneshot", "stream"):
            raise ValueError(f"unknown protocol mode {mode!r}")
        self.id = command if id is None else id
        self.command = command
        self.mode = mode

    def batch(
        self, X: np.ndarray, on_answered: Callable[[np.ndarray, int], None] | None = None
    ) -> np.ndarray:
        """Evaluate the rows of ``X``. Children start in row order. After a
        failure no child starts and those of higher rows are killed; those
        of lower rows finish, since one of them may fail too, and the lowest
        failing child's error is raised. A child past its deadline goes to
        :meth:`_Child.on_ready` with no pipe, as the child of a ready pipe
        does with it, and that method alone ends a child.

        ``on_answered(values, stop)``, if given, is called after each round of
        ready events with the batch's values and the end of the rows
        answered for good: every row below ``stop`` has its value, and no
        child of a row below it is running, has failed or waits to start.
        So a stream batch reports its rows only once its child is done, and
        a oneshot row answered out of order waits until the rows below it
        are. It is called once more as the batch ends, on success, on a
        failure and on a stop signal, after the batch's children are reaped."""
        import selectors

        X = np.atleast_2d(np.asarray(X, dtype=float))
        oneshot = self.mode == "oneshot"
        width = _usable_cpus() if oneshot else 1
        values = np.empty(len(X))
        # Both by the first row of their child, so that a failure holds back
        # every row its child answered.
        failures: dict[int, ModelError] = {}
        running: dict[int, _Child] = {}
        started = 0

        def report() -> None:
            if on_answered is not None:
                on_answered(values, min([started, *failures, *running]))

        with selectors.DefaultSelector() as selector:
            try:
                while True:
                    while len(running) < width and started < len(X) and not failures:
                        rows = range(started, started + 1 if oneshot else len(X))
                        try:
                            running[started] = _Child(self.command, rows, X, values, selector)
                        except OSError as exc:
                            failures[started] = ModelError(
                                f"cannot start external model {self.command!r} "
                                f"at node {_node(X[started])}: {exc}"
                            )
                        started = rows.stop
                    if not running:
                        break
                    wait = min(child.deadline for child in running.values()) - time.monotonic()
                    ready = selector.select(None if wait == math.inf else max(wait, 0.0))
                    late = [(c, None) for c in running.values() if c.deadline <= time.monotonic()]
                    for child, pipe in [(key.data, key.fileobj) for key, _ in ready] + late:
                        # A child ended earlier in this round of events is skipped.
                        if running.get(child.rows.start) is not child:
                            continue
                        try:
                            if child.on_ready(pipe):
                                del running[child.rows.start]
                        except ModelError as exc:
                            del running[child.rows.start]
                            failures[child.rows.start] = child.failed(exc)
                            for later in [r for r in running if r > min(failures)]:
                                running.pop(later).reap()
                    report()
            finally:
                for child in running.values():
                    child.reap()
                report()
        if failures:
            raise failures[min(failures)]
        return values

    def close(self) -> None:
        """Nothing to end: each batch reaps the children it started. It is
        kept only because ``bench/worker.py`` and ``bench/selftest.py`` call
        it; :class:`Model` has no ``close``."""


# --- evaluation cache -------------------------------------------------------

class CacheFileError(ValueError):
    """A persisted cache file that cannot be read back."""


#: Cache records formatted and written per ``write()``, so that a batch is
#: never held as one string and a stopped run keeps whole lines.
_RECORD_CHUNK_ROWS = 256


class _Records:
    """The records of one batch of ``X``, appended to the cache file
    ``path``, if there is one, in row order as their values become final.
    The file is opened once, at the first record, unbuffered in binary
    append mode, its directory created first if missing. Each chunk of up
    to :data:`_RECORD_CHUNK_ROWS` ``model_id<TAB>coords<TAB>value`` lines
    is one ``write()``, so that appenders sharing the file interleave
    whole chunks. An OS error is raised naming the file, and nothing more
    is written after it."""

    def __init__(self, path: Path | None, model_id: str, X: np.ndarray):
        self.path, self.model_id, self.X = path, model_id, X
        self.written, self.file = 0, None

    def write(self, values: np.ndarray, stop: int) -> None:
        """Append the records of the rows below ``stop`` not yet written."""
        if self.path is None:
            return
        try:
            while self.written < stop:
                end = min(self.written + _RECORD_CHUNK_ROWS, stop)
                rows = zip(self.X[self.written : end].tolist(), values[self.written : end].tolist())
                data = "".join(
                    f"{self.model_id}\t{_format_request(xi)}\t{y:.17g}\n" for xi, y in rows
                ).encode()
                if self.file is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self.file = open(self.path, "ab", buffering=0)
                while data:  # short only at a size limit, where the next write raises
                    data = data[self.file.write(data) :]
                self.written = end
        except OSError as exc:  # a failed write names no file
            self.written = len(self.X)
            raise OSError(exc.errno, exc.strerror, str(self.path)) from exc

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


class EvalCache:
    """Memoizes (model, node) evaluations over ``U_w``, the union of the
    Smolyak grids of ``specs`` at levels ``0..w``, and counts what it paid.

    A node is known by its rank in ``U_w``, the cache's
    :class:`~mfpce.sparse_grid.NodeSpace` ``space``, and the store holds
    per model id one value array and one paid mask over ``U_w``. A fit pays
    a grid by its integer axis ids (:meth:`evaluate_grid`); a row of
    physical coordinates is matched against the axis points
    (:meth:`_ranks`), and one that is no node of ``U_w`` raises
    ``ValueError``. Both pay through one core (:meth:`_pay`). With a path,
    the file's records are loaded on construction, and the fresh values of
    each batch are appended by :class:`_Records` as the model's ``batch``
    reports its rows answered for good (:meth:`ExternalModel.batch`).
    """

    def __init__(self, specs, w: int, path: str | Path | None = None):
        self.space = node_space(w, tuple(spec.family for spec in specs))
        self.points = [spec.from_standard(p) for spec, p in zip(specs, self.space.points)]
        self.w, self.size = w, self.space.ranks.size
        self.store, self.counters = {}, {}  # by model id: (values, paid); evaluations paid
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            self._load(self.path)

    def _ranks(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which rows of ``X`` are nodes of ``U_w``: each coordinate exactly
        one of its axis's points (-0.0 is 0.0), their costs summing to at
        most ``w``; and the ranks of those rows in ``U_w``."""
        on = np.full(len(X), X.shape[1] == len(self.points))
        ids = np.zeros((len(self.points), len(X)), np.min_scalar_type(max(map(len, self.points))))
        for points, x, column in zip(self.points, X.T if on.any() else (), ids):
            column[...] = np.minimum(np.searchsorted(points, x), len(points) - 1)
            on &= points[column] == x
        on &= sum(cost[column] for cost, column in zip(self.space.costs, ids)) <= self.w
        return on, self.space.ranks.ranks(ids if on.all() else ids[:, on])

    def _load(self, path: Path) -> None:
        """Read every record; a malformed or non-finite line raises
        :class:`CacheFileError` naming the file and its 1-based line number.
        A last line with no newline is a record cut short by a crash, even if
        it parses: it is dropped with a warning and cut from the file, so
        that the next append starts a line of its own. Each model id's
        records of the cache's dimension gather in two flat ``array('d')``
        buffers; those of a node of ``U_w`` are stored, its last one winning."""
        records: dict[str, tuple[array, array]] = {}
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
                    if not xi or not all(map(math.isfinite, [*xi, y])):
                        raise ValueError("no coordinates, or a nan or an inf")
                except ValueError:
                    raise CacheFileError(f"{path}:{lineno}: malformed cache record {line!r}") from None
                if len(xi) == len(self.points):
                    coords, values = records.setdefault(model_id, (array("d"), array("d")))
                    coords.extend(xi)
                    values.append(y)
        if complete < path.stat().st_size:
            os.truncate(path, complete)
        for model_id, (coords, values) in records.items():
            on, ranks = self._ranks(np.frombuffer(coords).reshape(-1, len(self.points)))
            last = np.full(self.size, -1)
            np.maximum.at(last, ranks, np.flatnonzero(on))
            self.store[model_id] = np.frombuffer(values)[last], last >= 0

    def _pay(self, model: Model, ranks: np.ndarray, nodes) -> np.ndarray:
        """Pay ``model`` at the nodes ``ranks`` of ``U_w`` not paid before,
        at the first position of each, in order, through one
        ``model.batch(nodes(positions), on_answered=...)``, which checks
        their shape and reports the rows to keep on file; ``nodes`` gives
        the physical coordinates of those positions. Returns the model's
        value array over ``U_w``, valid at every paid rank."""
        values, paid = self.store.get(model.id) or (np.empty(0), np.zeros(self.size, dtype=bool))
        rows = np.full(self.size, len(ranks))  # per node, its first position, unless it is paid
        np.minimum.at(rows, ranks, np.arange(len(ranks)))
        rows[paid] = len(ranks)
        rows = np.flatnonzero(rows[ranks] == np.arange(len(ranks)))
        if len(rows):
            new, at = nodes(rows), ranks if len(rows) == len(ranks) else ranks[rows]
            del rows  # not held through the model call
            with contextlib.closing(_Records(self.path, model.id, new)) as records:
                fresh = model.batch(new, on_answered=records.write)
            if not len(values):  # made once a batch is paid, not under its temporaries
                self.store[model.id] = (values := np.empty(self.size)), paid
            values[at] = fresh
            paid[at] = True
            self.counters[model.id] = self.counters.get(model.id, 0) + len(at)
        return values

    def evaluate_many(self, model: Model, X: np.ndarray) -> np.ndarray:
        """Evaluate ``model`` at rows of ``X`` (physical coordinates, each a
        node of ``U_w``), paying only for nodes not paid before, at the first
        row of each, in row order: ``X`` itself when every row is a fresh
        distinct node, else a gather (:meth:`_pay`)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        on, ranks = self._ranks(X)
        if not on.all():
            raise ValueError(f"node {_node(X[np.argmin(on)])} is not in the grids up to level {self.w}")
        values = self._pay(model, ranks, lambda rows: X if len(rows) == len(X) else X[rows])
        return values[ranks]

    def evaluate_grid(self, model: Model, grid, w: int) -> np.ndarray:
        """Pay ``model`` at the nodes of ``grid``, the level-``w`` Smolyak
        grid of the cache's families, not paid before, and return its value
        array over ``U_w``, which :func:`mfpce.pce.project` reads by rank.
        The grid's axis ids are mapped onto the cache's by integer lookup
        (:meth:`~mfpce.sparse_grid.NodeSpace.axis_maps`) and ranked; physical
        coordinates are formed only for the nodes paid, in ascending rank,
        which is grid order (:meth:`_pay`). Any other ``grid``, such as a
        lower level's or a tensor grid, raises ``ValueError`` before the
        model is called: its axis points are not those of ``U_w``, or its
        size is not the level-``w`` grid's; neither check reads a node."""
        if w > self.w:
            raise ValueError(f"the level-{w} grid is not in the grids up to level {self.w}")
        lower = node_space(w, self.space.families)
        if (
            len(grid.points) != len(lower.points)
            or not all(map(np.array_equal, grid.points, lower.points))
            or len(grid) != grid_size(len(lower.points), w)
        ):
            raise ValueError(f"the grid is not the level-{w} Smolyak grid of the cache's families")
        maps = self.space.axis_maps(lower)
        ranks = self.space.ranks.ranks(np.array([lookup[ids] for lookup, ids in zip(maps, grid.ids.T)]))
        axes = [points[lookup] for points, lookup in zip(self.points, maps)]  # the grid's, physical

        def nodes(rows):
            X = np.empty((len(rows), len(axes)))
            for x, points, ids in zip(X.T, axes, grid.ids.T):
                x[...] = points[ids[rows]]
            return X

        return self._pay(model, ranks, nodes)

    def count(self, model_id: str) -> int:
        return self.counters.get(model_id, 0)
