"""Import modclique from the checkout's own sources and call its CLI in-process.

Every job the benchmark times is one ``modclique.cli.main(argv)`` call with
stdout and stderr captured, so the program sees exactly the argv a shell user
would type and nothing else.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout does not hold the modclique sources."""


def import_cli():
    """Import ``modclique.cli`` from ``<root>/src`` and nowhere else."""
    if not (SRC / "modclique" / "__init__.py").is_file():
        raise MissingProgram(f"no modclique sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import modclique.cli as cli

    origin = Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"modclique was imported from {origin}, not from {SRC}")
    return cli


@dataclass(frozen=True)
class JobResult:
    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str
    wall_s: float


def run_cli(cli, argv) -> JobResult:
    """One CLI invocation; an escaping exception is a job failure, not a crash."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - reported as a failed job
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
    wall = time.perf_counter() - start
    return JobResult(tuple(argv), code, out.getvalue(), err.getvalue(), wall)
