"""Command-line front end.

Subcommands, after the global flags::

    mfpce --config cfg.yaml sobol    --scheme mf1 --w 6 [--q 2]
    mfpce --config cfg.yaml converge
    mfpce --config cfg.yaml decay    --scheme mf1 --w 5
    mfpce --config cfg.yaml mc-check --model hf [--n 65536]

Global flags: ``--config`` (required), ``--out`` (default: the config's
``output``) and ``--seed`` (default: the config's validation seed, which
``converge`` and ``mc-check`` draw from). Nothing is read from the
environment. The first report written creates ``--out``, so a command
that fails before it leaves no ``--out`` it did not find, and each report
appears whole or not at all. ``sobol``, ``decay`` and
``converge`` each make one :class:`~mfpce.models.EvalCache` of the config's
``cache``, and every fit of the command pays through it, a PCE reference's
too: a ``sobol`` report counts what its run paid, and ``convergence.csv``
each cell's cost.

Exit codes: 0 success, 2 configuration error (a config that breaks the
tables and rules of README "Study configuration", an out-of-range flag,
``--q`` on a non-MF scheme, a malformed cache file, an OS error on a path
the run reads or writes, or a sample count that memory cannot hold, each
in one line), 3 model-evaluation error, 4 numerical degeneracy, and 128
plus the signal number for a SIGINT (130) or a SIGTERM (143). Each batch
of an external model reaps the children it started before it returns, so
no child outlives a command, even when a signal ends it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
from pathlib import Path

from .config import (
    ConfigError, StudyConfig, build_reference, int_at_least, load_config, sample_count, seed_value,
    sparse_level,
)
from .models import CacheFileError, EvalCache, ModelError
from .sobol import SobolReport, ZeroVarianceError, all_indices, mc_sobol
from .study import (
    SchemeSpec,
    build_scheme,
    decay_report,
    report_file,
    run_convergence,
    write_convergence_csv,
    write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_DEGENERATE = 4

#: Signals that end a command as an error does, unwinding to :func:`main`.
_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class _Stopped(BaseException):
    """A stop signal (its number in ``args[0]``), raised in the main thread
    so that every ``with`` and ``finally`` on the way out runs and reaps
    its children. Like ``KeyboardInterrupt``, no ``except Exception``
    catches it."""


def _stop(signum, frame):
    # Later signals are ignored, so that they cannot cut the clean-up short.
    for other in _STOP_SIGNALS:
        signal.signal(other, signal.SIG_IGN)
    raise _Stopped(signum)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfpce",
        description="Sobol sensitivity analysis via (multi-fidelity) polynomial "
        "chaos expansions on sparse grids",
    )
    parser.add_argument("--config", help="study config (YAML)")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--seed", type=int, help="override the validation/MC seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sobol = sub.add_parser("sobol", help="Sobol report for one scheme at one level")
    p_sobol.add_argument("--scheme", required=True)
    p_sobol.add_argument("--w", type=int, required=True)
    p_sobol.add_argument("--q", type=int, default=None)

    sub.add_parser("converge", help="convergence sweep over all schemes and levels")

    p_decay = sub.add_parser("decay", help="coefficient-decay series for one scheme")
    p_decay.add_argument("--scheme", required=True)
    p_decay.add_argument("--w", type=int, required=True)

    p_mc = sub.add_parser("mc-check", help="Monte Carlo Sobol cross-check of one model")
    p_mc.add_argument("--model", required=True)
    p_mc.add_argument("--n", type=int, default=65536)
    return parser


def _load(args) -> tuple[StudyConfig, Path]:
    """The config with ``--seed`` applied, and the output directory."""
    if not args.config:
        raise ConfigError("no config given (use --config)")
    cfg = load_config(args.config)
    if args.seed is not None:
        seed = seed_value(args.seed, "--seed")
        cfg = dataclasses.replace(cfg, validation=dataclasses.replace(cfg.validation, seed=seed))
    return cfg, Path(args.out or cfg.output)


def _write_report(path: Path, report: SobolReport, variables, **extra) -> None:
    """``report`` as an indented JSON object, its indices named by
    ``variables``, with the fields ``extra`` last."""
    names = [v.name for v in variables]
    payload = {
        "mean": report.mean,
        "variance": report.variance,
        "subset_indices": [
            {"subset": [i + 1 for i in subset], "variables": [names[i] for i in subset], "value": v}
            for subset, v in sorted(report.subset_indices.items())
        ],
        "total_indices": [
            {"variable": names[i], "value": t} for i, t in enumerate(report.total_indices)
        ],
    }
    if report.first_order_se is not None:
        payload["first_order_se"] = list(report.first_order_se)
    if report.total_se is not None:
        payload["total_se"] = list(report.total_se)
    with report_file(path) as fh:
        fh.write(json.dumps({**payload, **extra}, indent=2) + "\n")


def _scheme(cfg: StudyConfig, args) -> SchemeSpec:
    """The scheme of ``--scheme``, with ``--q`` if given (an MF scheme
    only), checked to build at level ``--w``: an MF scheme needs ``w >= q``,
    and every grid the bounds of :func:`~mfpce.config.sparse_level`."""
    scheme = cfg.scheme(args.scheme)
    if getattr(args, "q", None) is not None:
        q = int_at_least(args.q, 0, "--q")
        if scheme.kind != "mf":
            raise ConfigError(f"--q is for mf schemes, and scheme {scheme.name!r} is {scheme.kind}")
        scheme = dataclasses.replace(scheme, q=q)
    what = f"--w of scheme {scheme.name!r} with q={scheme.q}" if scheme.kind == "mf" else "--w"
    sparse_level(int_at_least(args.w, scheme.q, what), cfg.variables, "--w")
    return scheme


def cmd_sobol(cfg: StudyConfig, out: Path, args) -> int:
    scheme, cache = _scheme(cfg, args), EvalCache(cfg.variables, args.w, cfg.cache)
    built = build_scheme(scheme, args.w, cfg.variables, cfg.open_models(), cache)
    n_hf = 0 if scheme.kind == "lf" else cache.count(scheme.hf)
    n_lf = 0 if scheme.kind == "hf" else cache.count(scheme.lf)
    del cache  # what the run paid is read; its store goes before the report is made
    report = all_indices(built.expansion)
    stem = f"sobol_{scheme.name}_w{args.w}"
    paid = {"scheme": scheme.label(args.w), "n_hf": n_hf, "n_lf": n_lf}
    _write_report(out / f"{stem}.json", report, cfg.variables, **paid)
    totals = zip([v.name for v in cfg.variables], report.total_indices)
    write_csv(out / f"{stem}_totals.csv", ["variable", "total_index"], totals)
    print(f"wrote {out / stem}.json and {stem}_totals.csv")
    return EXIT_OK


def cmd_converge(cfg: StudyConfig, out: Path) -> int:
    models, ref = cfg.open_models(), cfg.reference
    w = max(cfg.levels.max, ref.w) if ref.kind == "pce" else cfg.levels.max
    cache = EvalCache(cfg.variables, w, cfg.cache)
    rows = run_convergence(cfg, models, build_reference(cfg, models, cache), cache)
    path = out / "convergence.csv"
    write_convergence_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_decay(cfg: StudyConfig, out: Path, args) -> int:
    scheme, specs = _scheme(cfg, args), cfg.variables
    built = build_scheme(scheme, args.w, specs, cfg.open_models(), EvalCache(specs, args.w, cfg.cache))
    parts = [built.lf_expansion, built.correction, built.expansion, built.hf_expansion]
    path = out / f"decay_{scheme.name}_w{args.w}.csv"
    write_csv(path, ["provenance", "rank", "abs_coeff"], decay_report(p for p in parts if p is not None))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_mc_check(cfg: StudyConfig, out: Path, args) -> int:
    sample_count(args.n, "--n")
    if args.model not in [binding.id for binding in cfg.models]:
        raise ConfigError(f"unknown model {args.model!r}")
    seed = cfg.validation.seed
    report = mc_sobol(cfg.open_models()[args.model], cfg.variables, args.n, seed)
    path = out / f"mc_{args.model}_n{args.n}.json"
    _write_report(path, report, cfg.variables, model=args.model, n=args.n, seed=seed)
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command; return its exit code. SIGINT and SIGTERM are
    handled while it runs, and the previous handlers are restored after."""
    args = build_parser().parse_args(argv)
    previous = {signum: signal.signal(signum, _stop) for signum in _STOP_SIGNALS}
    try:
        cfg, out = _load(args)
        if args.command == "sobol":
            return cmd_sobol(cfg, out, args)
        if args.command == "converge":
            return cmd_converge(cfg, out)
        if args.command == "decay":
            return cmd_decay(cfg, out, args)
        return cmd_mc_check(cfg, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CacheFileError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"model evaluation error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ZeroVarianceError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except _Stopped as exc:
        signum = exc.args[0]
        print(f"stopped by {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
