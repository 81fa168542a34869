"""Command-line front end.

Subcommands::

    mfpce sobol    --config cfg.yaml --scheme mf1 --w 6 [--q 2]
    mfpce converge --config cfg.yaml
    mfpce decay    --config cfg.yaml --scheme mf1 --w 5
    mfpce mc-check --config cfg.yaml --model hf [--n 65536]

Global flags: ``--config``, ``--out``, ``--seed``; each can also come from
the environment (``MFPCE_CONFIG``, ``MFPCE_OUT``, ``MFPCE_SEED``).

Exit codes: 0 success, 2 configuration error (a config that breaks the
tables and rules of README "Study configuration", an out-of-range flag,
``--q`` on a non-MF scheme, or an unreadable evaluation-cache file),
3 model-evaluation error, 4 numerical degeneracy, and 128 plus the signal
number for a SIGINT (130) or a SIGTERM (143). Each command closes the
models it resolved, so no stream-mode child outlives it, whether it ends
by itself or by one of those signals.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
from pathlib import Path

from .config import ConfigError, StudyConfig, int_at_least, load_config, seed_value
from .models import CacheFileError, EvalCache, ModelError
from .sobol import SobolReport, ZeroVarianceError, all_indices, mc_sobol
from .study import (
    SchemeSpec,
    build_scheme,
    decay_report,
    run_convergence,
    write_convergence_csv,
    write_decay_csv,
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


def _env_default(name: str, fallback=None):
    return os.environ.get(f"MFPCE_{name}", fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfpce",
        description="Sobol sensitivity analysis via (multi-fidelity) polynomial "
        "chaos expansions on sparse grids",
    )
    parser.add_argument("--config", default=_env_default("CONFIG"), help="study config (YAML)")
    parser.add_argument("--out", default=_env_default("OUT"), help="output directory override")
    parser.add_argument(
        "--seed", type=int, default=_env_default("SEED"), help="override the validation/MC seed"
    )
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
    if not args.config:
        raise ConfigError("no config given (use --config or MFPCE_CONFIG)")
    cfg = load_config(args.config)
    if args.seed is not None:
        seed = seed_value(args.seed, "--seed")
        cfg = dataclasses.replace(cfg, validation=dataclasses.replace(cfg.validation, seed=seed))
    out = Path(args.out) if args.out else Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _report_payload(report: SobolReport, variables) -> dict:
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
    return payload


def _scheme(cfg: StudyConfig, args) -> SchemeSpec:
    """The scheme of ``--scheme``, with ``--q`` if given (an MF scheme
    only), checked to build at level ``--w``: an MF scheme needs ``w >= q``."""
    scheme = cfg.scheme(args.scheme)
    if getattr(args, "q", None) is not None:
        q = int_at_least(args.q, 0, "--q")
        if scheme.kind != "mf":
            raise ConfigError(f"--q is for mf schemes, and scheme {scheme.name!r} is {scheme.kind}")
        scheme = dataclasses.replace(scheme, q=q)
    what = f"--w of scheme {scheme.name!r} with q={scheme.q}" if scheme.kind == "mf" else "--w"
    int_at_least(args.w, scheme.q, what)
    return scheme


def cmd_sobol(cfg: StudyConfig, out: Path, args) -> int:
    scheme = _scheme(cfg, args)
    cache = EvalCache(cfg.cache)
    with cfg.open_models() as models:
        built = build_scheme(scheme, args.w, cfg.variables, models, cache)
    report = all_indices(built.expansion)
    stem = f"sobol_{scheme.name}_w{args.w}"
    payload = _report_payload(report, cfg.variables)
    payload["scheme"] = scheme.label(args.w)
    payload["n_hf"] = built.n_hf
    payload["n_lf"] = built.n_lf
    (out / f"{stem}.json").write_text(json.dumps(payload, indent=2) + "\n")
    with open(out / f"{stem}_totals.csv", "w") as fh:
        fh.write("variable,total_index\n")
        for v, t in zip(cfg.variables, report.total_indices):
            fh.write(f"{v.name},{t:.12g}\n")
    print(f"wrote {out / stem}.json and {stem}_totals.csv")
    return EXIT_OK


def cmd_converge(cfg: StudyConfig, out: Path) -> int:
    rows = run_convergence(cfg)
    path = out / "convergence.csv"
    write_convergence_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_decay(cfg: StudyConfig, out: Path, args) -> int:
    scheme = _scheme(cfg, args)
    cache = EvalCache(cfg.cache)
    with cfg.open_models() as models:
        built = build_scheme(scheme, args.w, cfg.variables, models, cache)
        expansions = [built.expansion]
        if built.lf_expansion is not None:
            expansions = [built.lf_expansion, built.correction, built.expansion]
            # the HF spectrum at the correction level, from the correction's HF values
            hf_scheme = SchemeSpec(scheme.name, "hf", scheme.hf)
            hf_built = build_scheme(hf_scheme, args.w - scheme.q, cfg.variables, models, cache)
            expansions.append(hf_built.expansion)
    rows = decay_report(expansions)
    path = out / f"decay_{scheme.name}_w{args.w}.csv"
    write_decay_csv(rows, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_mc_check(cfg: StudyConfig, out: Path, args) -> int:
    int_at_least(args.n, 2, "--n")
    with cfg.open_models() as models:
        if args.model not in models:
            raise ConfigError(f"unknown model {args.model!r}")
        report = mc_sobol(models[args.model], cfg.variables, args.n, cfg.validation.seed)
    payload = _report_payload(report, cfg.variables)
    payload["model"] = args.model
    payload["n"] = args.n
    payload["seed"] = cfg.validation.seed
    path = out / f"mc_{args.model}_n{args.n}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
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
    except CacheFileError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
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
