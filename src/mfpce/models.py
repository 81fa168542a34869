"""Benchmark model families, an external black-box adapter, and the shared
evaluation cache used for cost accounting.

Three builtin families ship with their study input distributions:

* ``borehole`` -- 8 uniform inputs, one LF variant.
* ``ishigami`` -- 3 uniform inputs on ``[-pi, pi]``, three LF variants.
* ``short_column`` -- 2 uniform + 3 normal inputs, five LF variants.

External executables are wrapped through a line-oriented wire protocol:
one request line of space-separated physical coordinates, one response line
holding a single decimal. ``oneshot`` mode spawns one process per request;
``stream`` mode keeps a long-lived child answering line-for-line.
"""

from __future__ import annotations

import math
import shlex
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .orthopoly import Normal, Uniform, VariableSpec


class ModelError(RuntimeError):
    """Model evaluation failure, carrying the offending node coordinates."""


@dataclass(frozen=True)
class Model:
    """A deterministic scalar model."""

    id: str
    fidelity: str  # "hf" or "lf<k>"
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, xi) -> float:
        return float(self.batch(np.asarray(xi, dtype=float)[None, :])[0])

    def batch(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(X)), dtype=float)

    def close(self) -> None:
        """End the child process of an external stream model, if one runs."""
        owner = getattr(self.fn, "__self__", None)
        if isinstance(owner, ExternalModel):
            owner.close()


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
        return Model(id=key, fidelity=fidelity, fn=fn)
    if problem == "ishigami" and fidelity in _ISHIGAMI_VARIANTS:
        params = _ISHIGAMI_VARIANTS[fidelity]
        return Model(id=key, fidelity=fidelity, fn=lambda X, p=params: ishigami_fn(X, **p))
    if problem == "short_column" and (
        fidelity == "hf" or fidelity in ("lf1", "lf2", "lf3", "lf4", "lf5")
    ):
        return Model(id=key, fidelity=fidelity, fn=lambda X, v=fidelity: _short_column(X, v))
    raise KeyError(f"unknown builtin model {key!r}")


# --- external processes -----------------------------------------------------

def _format_request(xi) -> str:
    return " ".join(f"{c:.17g}" for c in xi)


def _parse_response(raw: str, xi) -> float:
    try:
        value = float(raw.strip())
    except ValueError:
        raise ModelError(
            f"malformed response {raw.strip()!r} from external model at node {tuple(xi)}"
        ) from None
    if not math.isfinite(value):
        raise ModelError(
            f"non-finite output {raw.strip()!r} from external model at node {tuple(xi)}"
        )
    return value


class ExternalModel:
    """Subprocess-backed model honoring the line-oriented wire protocol."""

    def __init__(self, command: str, mode: str = "oneshot"):
        if mode not in ("oneshot", "stream"):
            raise ValueError(f"unknown protocol mode {mode!r}")
        self.command = command
        self.mode = mode
        self._proc: subprocess.Popen | None = None

    def _eval_oneshot(self, xi) -> float:
        try:
            result = subprocess.run(
                shlex.split(self.command),
                input=_format_request(xi) + "\n",
                capture_output=True,
                text=True,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError) as exc:
            raise ModelError(
                f"external model {self.command!r} failed at node {tuple(xi)}: {exc}"
            ) from exc
        return _parse_response(result.stdout, xi)

    def _eval_stream(self, xi) -> float:
        if self._proc is None or self._proc.poll() is not None:
            try:
                self._proc = subprocess.Popen(
                    shlex.split(self.command),
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
            except OSError as exc:
                raise ModelError(f"cannot start external model {self.command!r}: {exc}") from exc
        try:
            self._proc.stdin.write(_format_request(xi) + "\n")
            self._proc.stdin.flush()
            raw = self._proc.stdout.readline()
        except (OSError, BrokenPipeError) as exc:
            raise ModelError(
                f"external model {self.command!r} pipe failure at node {tuple(xi)}: {exc}"
            ) from exc
        if raw == "":
            raise ModelError(
                f"external model {self.command!r} closed its output at node {tuple(xi)}"
            )
        return _parse_response(raw, xi)

    def close(self) -> None:
        """End the stream child: close its input, wait for it to exit (and
        kill it if it has not within 10 s), then close its output."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the child has exited; input left in the buffer is moot
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def batch(self, X: np.ndarray) -> np.ndarray:
        evaluate = self._eval_oneshot if self.mode == "oneshot" else self._eval_stream
        return np.array([evaluate(xi) for xi in np.atleast_2d(X)])


def external_model(
    command: str,
    fidelity: str = "hf",
    mode: str = "oneshot",
    id: str | None = None,
) -> Model:
    proc = ExternalModel(command, mode=mode)
    return Model(id=id or f"external/{fidelity}", fidelity=fidelity, fn=proc.batch)


# --- evaluation cache -------------------------------------------------------

_KEY_DECIMALS = 12


class CacheFileError(ValueError):
    """A persisted cache file that cannot be read back."""


def _cache_keys(X: np.ndarray) -> np.ndarray:
    """Cache keys of the rows of ``X``: the bytes of the row with its
    coordinates rounded to ``_KEY_DECIMALS`` decimals and -0.0 folded into
    0.0, one fixed-width ``np.void`` per row. A coordinate of magnitude
    ``2**52`` or more has no fractional digits and is its own key; rounding
    it would overflow to ``inf`` above about 1.8e296."""
    whole = np.abs(X) >= 2.0**52
    rounded = np.round(np.where(whole, 0.0, X), _KEY_DECIMALS)
    keys = np.ascontiguousarray(np.where(whole, X, rounded) + 0.0)
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()


class EvalCache:
    """Memoizes (model, node) evaluations and counts distinct evaluations.

    The store holds, per model id and dimension, the sorted
    :func:`_cache_keys` of the nodes seen and their values; a batch is
    looked up with ``np.unique`` and ``np.searchsorted``. With a
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
        naming the file and its 1-based line number."""
        records: dict[tuple[str, int], tuple[list, list]] = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
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
        for slot, (rows, values) in records.items():
            # Reversed, a key's first record is the last one written.
            keys = _cache_keys(np.array(rows[::-1], dtype=float))
            keys, last = np.unique(keys, return_index=True)
            self.store[slot] = keys, np.array(values[::-1], dtype=float)[last]

    def _append_records(self, model_id: str, X: np.ndarray, values) -> None:
        if self.path is None:
            return
        lines = "".join(
            f"{model_id}\t{_format_request(xi)}\t{value:.17g}\n" for xi, value in zip(X, values)
        )
        with open(self.path, "a") as fh:
            fh.write(lines)

    def evaluate_many(self, model: Model, X: np.ndarray) -> np.ndarray:
        """Evaluate ``model`` at rows of ``X`` (physical coordinates),
        paying only for nodes not seen before. Rows sharing a key are paid
        once, at their first occurrence, and in the order of those."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        slot = (model.id, X.shape[1])
        keys, first, inverse = np.unique(_cache_keys(X), return_index=True, return_inverse=True)
        known, known_values = self.store.get(slot, (keys[:0], np.empty(0)))
        at = np.searchsorted(known, keys)
        hit = at < len(known)
        hit[hit] = known[at[hit]] == keys[hit]
        values = np.empty(len(keys))
        values[hit] = known_values[at[hit]]
        missing = np.flatnonzero(~hit)
        if len(missing):
            rows = np.sort(first[missing])
            new = X[rows]
            fresh = np.asarray(model.batch(new), dtype=float)
            if fresh.shape != (len(rows),):
                raise ModelError(
                    f"model {model.id!r} returned shape {fresh.shape} for {len(rows)} nodes"
                )
            values[inverse[rows]] = fresh
            self._append_records(model.id, new, fresh.tolist())
            self.counters[model.id] = self.counters.get(model.id, 0) + len(rows)
            at = at[missing]
            self.store[slot] = (
                np.insert(known, at, keys[missing]),
                np.insert(known_values, at, values[missing]),
            )
        return values[inverse]

    def evaluate(self, model: Model, xi) -> float:
        return float(self.evaluate_many(model, np.asarray(xi, dtype=float)[None, :])[0])

    def count(self, model_id: str) -> int:
        return self.counters.get(model_id, 0)
