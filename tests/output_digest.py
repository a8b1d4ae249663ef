"""Output digest: one SHA-256 per command-line run over a fixed set of runs.

Runs, in this process and in this order, every request of each ``--seeds``
pass of the three benchmark workloads (built by ``bench/workloads.py``, which
is only read), then each shipped scenario under its subcommand as csv and as
json, and under ``validate``.  A scenario with a ``sweep`` section runs under
``sweep``, one that asks for a ``comparison`` under ``compare``, any other
under ``propagate``.

Each run is one ``spinpair.cli.main`` call with ``--quiet`` and its own output
directory.  Its line is the SHA-256 of the exit code, stdout, stderr and every
output file, name and bytes, followed by the run's label; the paths of the
scratch directory and of the checkout are replaced by fixed tokens in both
streams, and each run's outputs are deleted once hashed.  The last line
is the SHA-256 of all run lines, with the counts of runs and files.  Two
checkouts that print the same total exit, print and write the same bytes on
every run::

    python tests/output_digest.py --seeds 1 2

The package is imported from this checkout's ``src``, whatever is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from spinpair import cli  # noqa: E402


def _subcommand(config: dict) -> str:
    if "sweep" in config:
        return "sweep"
    return "compare" if "comparison" in config["outputs"] else "propagate"


def _runs(seeds, work: Path):
    """``(label, argv)`` of each run; request configs are written under ``work``."""
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for index, request in enumerate(workloads.build(workload, seed)):
                label = f"{workload}/{seed}/{index:03d}"
                path = work / f"{workload}-{seed}-{index:03d}.json"
                path.write_text(json.dumps(request.config, indent=1))
                yield f"{label} {request.subcommand}", [request.subcommand, "--config",
                                                        str(path)]
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        command = _subcommand(json.loads(path.read_text()))
        for extra in (["--format", "csv"], ["--format", "json"]):
            yield f"scenarios/{path.name} {command} {extra[1]}", [command, "--config",
                                                                  str(path), *extra]
        yield f"scenarios/{path.name} validate", ["validate", "--config", str(path)]


def _digest(code, stdout: str, stderr: str, out: Path) -> tuple:
    """SHA-256 of a run and the number of files it wrote."""
    digest = hashlib.sha256()

    def field(data: bytes):
        digest.update(len(data).to_bytes(8, "little") + data)

    field(repr(code).encode())
    field(stdout.encode())
    field(stderr.encode())
    files = sorted(path for path in out.rglob("*") if path.is_file()) if out.is_dir() else []
    for path in files:
        field(path.relative_to(out).as_posix().encode())
        field(path.read_bytes())
    return digest.hexdigest(), len(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    runs = files = 0
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        for label, run in _runs(args.seeds, work):
            out = work / f"out-{runs}"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([*run, "--out", str(out), "--quiet"])
            streams = (stream.getvalue().replace(scratch, "<work>").replace(str(ROOT), "<root>")
                       for stream in (stdout, stderr))
            digest, written = _digest(code, *streams, out)
            shutil.rmtree(out, ignore_errors=True)
            line = f"{digest}  {label}"
            print(line, flush=True)
            total.update(line.encode() + b"\n")
            runs, files = runs + 1, files + written
    print(f"{total.hexdigest()}  total: {runs} runs, {files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
