"""Command-line front end.

Usage: ``spinpair <subcommand> --config <path> --out <dir> [--format csv|json]
[--quiet]``; ``validate`` writes JSON only.  Physics lives in the config file;
flags only select paths and formats.  No environment variables are consulted.

Exit codes: 0 success, 2 config error, 3 compute error (a failed validation
check included), 4 I/O error.  Every non-zero exit prints one line to
stderr, a flag error (exit 2) included.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, IoError, SpinPairError
from .scenario import (
    load_config,
    run_scenario,
    run_sweep,
    run_validation,
    write_outputs,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """A flag error exits 2 with one stderr line and no usage text; the
    subcommand parsers are built from this class too."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinpair",
        description="Two coupled spins in a time-dependent magnetic field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("propagate", "integrate one scenario and export its trajectory"),
        ("compare", "exact vs approximate solutions from one frame state"),
        ("sweep", "repeat a scenario over a parameter sweep"),
        ("validate", "run the structural invariant suite on a scenario"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="scenario JSON file")
        cmd.add_argument("--out", required=(name != "validate"),
                         help="output directory")
        if name != "validate":
            cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--quiet", action="store_true")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = load_config(Path(args.config))
        if args.command == "validate":
            report = run_validation(config)
            if not args.quiet:
                for name, entry in report["checks"].items():
                    state = "pass" if entry["pass"] else "FAIL"
                    print(f"{state}  {name}: {entry['value']:.3e} "
                          f"(threshold {entry['threshold']:.1e})")
            if args.out:
                write_outputs(Path(args.out), "json", report,
                              name="validation.json")
            if report["all_pass"]:
                return EXIT_OK
            failed = [name for name, entry in report["checks"].items() if not entry["pass"]]
            print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
            return EXIT_COMPUTE
        if args.command == "sweep":
            run_sweep(config, Path(args.out), fmt=args.format, quiet=args.quiet)
            return EXIT_OK
        if args.command == "compare" and "comparison" not in config.outputs:
            raise ConfigError("compare command needs 'comparison' in outputs")
        run_scenario(config, Path(args.out), fmt=args.format, quiet=args.quiet)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SpinPairError as exc:
        provenance = f"{type(exc).__module__}.{type(exc).__name__}"
        print(f"compute error [{provenance}]: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:
        # e.g. a grid too large to allocate: the config parses, the run cannot
        print(f"compute error [MemoryError]: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
