#!/usr/bin/env python3
"""Net Rust lines of the working tree against a revision, code and tests apart.

Every `.rs` file that differs from <rev> (tracked changes, deletions and
untracked new files) is counted at <rev> and in the working tree. A line
is a test line when its file lies under a `tests/` directory, or when it
sits at or below the file's first `#[cfg(test)]`; every other line is
code. Lines are physical lines, blank and comment lines included, as
`git diff --stat` counts them.

    scripts/net_lines.py HEAD~1
    scripts/net_lines.py HEAD~1 --files     # one row per changed file

Needs only python3 and git.
"""

import argparse
import subprocess
import sys
from pathlib import Path


def git(*args: str, cwd=None) -> str:
    out = subprocess.run(["git", *args], capture_output=True, text=True, check=True, cwd=cwd)
    return out.stdout


def split(path: str, text: str) -> tuple:
    """(code lines, test lines) of one file's text."""
    lines = text.splitlines()
    if "tests" in Path(path).parts:
        return 0, len(lines)
    for i, line in enumerate(lines):
        if line.strip().startswith("#[cfg(test)]"):
            return i, len(lines) - i
    return len(lines), 0


def at_rev(rev: str, path: str, root: Path) -> str:
    out = subprocess.run(["git", "show", f"{rev}:{path}"], capture_output=True, text=True, cwd=root)
    return out.stdout if out.returncode == 0 else ""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to count against")
    ap.add_argument("--files", action="store_true", help="print one row per changed file")
    args = ap.parse_args()
    root = Path(git("rev-parse", "--show-toplevel").strip())
    changed = git("diff", "--name-only", args.rev, "--", "*.rs", cwd=root).split()
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "*.rs", cwd=root).split()
    paths = sorted(set(changed) | set(untracked))
    total = {"code": [0, 0], "tests": [0, 0]}
    rows = []
    for path in paths:
        file = root / path
        now = file.read_text() if file.exists() else ""
        before, after = split(path, at_rev(args.rev, path, root)), split(path, now)
        for kind, b, a in (("code", before[0], after[0]), ("tests", before[1], after[1])):
            total[kind][0] += b
            total[kind][1] += a
        rows.append((path, after[0] - before[0], after[1] - before[1]))
    if args.files:
        print(f"{'file':<60} {'code':>7} {'tests':>7}")
        for path, code, tests in rows:
            print(f"{path:<60} {code:>+7} {tests:>+7}")
        print()
    print(f"net Rust lines against {args.rev} ({len(paths)} files changed)")
    for kind, (b, a) in total.items():
        print(f"  {kind:<5}  {b:>6} -> {a:>6}  net {a - b:+d}")
    net = sum(a - b for b, a in total.values())
    print(f"  total  net {net:+d}")


if __name__ == "__main__":
    try:
        main()
    except subprocess.CalledProcessError as e:
        sys.exit(e.stderr.strip() or str(e))
