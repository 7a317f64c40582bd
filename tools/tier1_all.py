"""Run the tier-1 test command on several Python interpreters, with nothing
downloaded.

    python3 tools/tier1_all.py INTERPRETER [INTERPRETER ...]

Run it from any directory, with an interpreter that has pytest installed:
it links that interpreter's pure-Python pytest and its dependencies into a
temporary directory, puts the directory on PYTHONPATH after src, and runs

    python -m pytest -q --continue-on-collection-errors

from the root of the checkout on each INTERPRETER in turn. It prints one
line per interpreter with its version and pytest's closing counts, and exits
1 if any run fails.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# pytest and what it imports; all pure Python
BORROWED = ("_pytest", "pytest", "pluggy", "iniconfig", "packaging", "pygments", "py")
COMMAND = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def link_borrowed(target: Path) -> None:
    """Symlink each borrowed package, or single-file module, into target."""
    for name in BORROWED:
        spec = importlib.util.find_spec(name)
        if spec is None or spec.origin is None:
            sys.exit(f"error: {name} is not importable by {sys.executable}")
        origin = Path(spec.origin)
        source = origin.parent if spec.submodule_search_locations else origin
        (target / source.name).symlink_to(source)


def run_tier1(interpreter: str, borrowed: Path) -> tuple[bool, str]:
    """Run the tier-1 command on one interpreter: whether it passed, and its
    version followed by pytest's last line, or the tail of a failed run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", str(borrowed), env.get("PYTHONPATH")]))
    version = subprocess.run(
        [interpreter, "-c", "import platform; print(platform.python_version())"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    done = subprocess.run([interpreter, *COMMAND], cwd=ROOT, env=env, capture_output=True, text=True)
    lines = (done.stdout + done.stderr).strip().splitlines() or ["no output"]
    summary = lines[-1] if done.returncode == 0 else "\n    ".join(lines[-15:])
    return done.returncode == 0, f"Python {version or '?'}: {summary}"


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory(prefix="tier1-") as temporary:
        borrowed = Path(temporary)
        link_borrowed(borrowed)
        for interpreter in argv:
            passed, line = run_tier1(interpreter, borrowed)
            failed = failed or not passed
            print(f"{interpreter}: {line}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
