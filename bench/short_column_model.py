#!/usr/bin/env python3
"""External stand-ins for the builtin ``short_column/hf`` and
``short_column/lf4`` models, speaking the mfpce wire protocol.

    python3 short_column_model.py hf|lf4

Reads one request line of five space-separated coordinates (b, h, P, M, Y)
per line of stdin and answers each with one ``.17g`` decimal line. Works in
oneshot mode (one line, then EOF) and stream mode (line for line until
stdin closes). Imports only the standard library, so a oneshot spawn costs
the interpreter start-up and little more.
"""

import sys


def short_column(variant: str, b: float, h: float, P: float, M: float, Y: float) -> float:
    base = 1.0 - 4.0 * M / (b * h**2 * Y) - (P / (b * h * Y)) ** 2
    if variant == "hf":
        return base
    return base - 0.4 * (P - M) / (b * h * Y)


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in ("hf", "lf4"):
        print("usage: short_column_model.py hf|lf4", file=sys.stderr)
        return 2
    variant = sys.argv[1]
    for line in sys.stdin:
        if line.strip():
            coords = (float(c) for c in line.split())
            print(f"{short_column(variant, *coords):.17g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
