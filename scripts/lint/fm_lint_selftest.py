#!/usr/bin/env python3
"""Golden-fixture self-test for fm_lint.py.

Each fixture under scripts/lint/fixtures/ encodes either expected findings
(the *_bad.* files) or the expectation of silence (*_clean.*). The test
proves every rule fires — a linter whose rules silently stopped matching
is worse than no linter, because it keeps certifying the invariants it no
longer checks. Registered in ctest as `fm_lint_selftest`; also run by the
CI lint job.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(HERE, "fm_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(*args: str) -> tuple[int, str]:
    """args may mix file paths and extra fm_lint flags."""
    proc = subprocess.run(
        [sys.executable, LINT, "--root", ROOT, "--engine", "text", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout


def expect(cond: bool, label: str, output: str, failures: list[str]):
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {label}")
    if not cond:
        failures.append(label)
        print("    lint output was:")
        for line in output.splitlines():
            print(f"      {line}")


def main() -> int:
    failures: list[str] = []

    print("fixture: hotpath_bad.cc")
    rc, out = run_lint(os.path.join(FIXTURES, "hotpath_bad.cc"))
    expect(rc != 0, "exits nonzero", out, failures)
    expect("hotpath-alloc" in out and "push_back" in out.replace(" ", ""),
           "flags vector growth", out, failures)
    expect("operator new" in out, "flags operator new", out, failures)
    expect("lock_guard" in out, "flags lock_guard", out, failures)
    expect("hotpath-call" in out and "untracked_helper" in out,
           "flags unmarked callee", out, failures)

    print("fixture: hotpath_template_bad.h")
    rc, out = run_lint(os.path.join(FIXTURES, "hotpath_template_bad.h"))
    expect(rc != 0, "exits nonzero", out, failures)
    expect("Pump::pump" in out and "push_back" in out.replace(" ", ""),
           "checks an out-of-class template member under its in-class "
           "marker", out, failures)
    expect("hotpath-call" in out and "untracked_step" in out,
           "flags the template member's unmarked callee", out, failures)

    print("fixture: hotpath_clean.cc")
    rc, out = run_lint(os.path.join(FIXTURES, "hotpath_clean.cc"))
    expect(rc == 0, "clean hot path passes (allow comment honored, cold "
           "boundary respected)", out, failures)

    print("fixture: batch_bad.cc")
    rc, out = run_lint(os.path.join(FIXTURES, "batch_bad.cc"))
    expect(rc != 0, "exits nonzero", out, failures)
    expect("hotpath-alloc" in out and "new" in out,
           "flags per-burst heap mmsghdr slab", out, failures)
    expect("push_back" in out.replace(" ", ""),
           "flags iovec vector growth", out, failures)
    expect("hotpath-call" in out and "cold_metrics_flush" in out,
           "flags unmarked callee from the batch path", out, failures)

    print("fixture: assert_bad.cc")
    rc, out = run_lint(os.path.join(FIXTURES, "assert_bad.cc"))
    expect(rc != 0 and "no-assert" in out, "flags raw assert()",
           out, failures)
    expect(out.count("no-assert") == 1,
           "static_assert and assert_owner() do not trip", out, failures)

    print("fixture: counter_bad.cc")
    rc, out = run_lint(os.path.join(FIXTURES, "counter_bad.cc"))
    expect(rc != 0, "exits nonzero", out, failures)
    expect("Frames.Sent" in out, "flags grammar violation", out, failures)
    expect("undocumented_xyz" in out, "flags undocumented name",
           out, failures)
    expect("gpu.node0" in out, "flags unknown scope", out, failures)
    expect("'frames_sent'" not in out, "documented name passes",
           out, failures)

    print("fixture: counter_serve.cc")
    rc, out = run_lint(os.path.join(FIXTURES, "counter_serve.cc"))
    expect(rc != 0, "exits nonzero", out, failures)
    expect("serve_undocumented_xyz" in out,
           "flags undocumented serve counter", out, failures)
    expect("servette.node0" in out,
           "serve prefix is a whole path segment, not a substring",
           out, failures)
    expect("'serve.node0'" not in out, "serve.node scope passes",
           out, failures)
    expect("'requests_admitted'" not in out and
           "'calls_shed_remote'" not in out,
           "documented serve counters pass", out, failures)

    print("fixture: pragma_bad.h + pragma_clean.h")
    rc, out = run_lint(os.path.join(FIXTURES, "pragma_bad.h"),
                       os.path.join(FIXTURES, "pragma_clean.h"))
    expect(rc != 0 and "pragma-once" in out and "pragma_bad.h" in out,
           "flags missing pragma once", out, failures)
    expect("pragma_clean.h" not in out, "compliant header passes",
           out, failures)

    print("fixture: atomic_bad.h")
    atomic_fixture = os.path.join(FIXTURES, "atomic_bad.h")
    rc, out = run_lint("--chk-atomic-dirs", FIXTURES, atomic_fixture)
    expect(rc != 0, "exits nonzero", out, failures)
    expect(out.count("chk-atomic") == 3,
           "flags both bare std::atomic members (plain and spaced "
           "qualifier) and the bare std::atomic_ref, and only those",
           out, failures)
    expect("fm::chk::atomic" in out,
           "message points at the seam type", out, failures)
    # The dotted allow spelling normalizes to chk-atomic and suppresses
    # (frozen member), and the seam types never match; none of them may
    # add a finding beyond the three above, and the allow itself must not
    # be flagged as malformed.
    expect("bad-allow" not in out,
           "allow(chk.atomic) with justification is well-formed",
           out, failures)

    print("fixture: atomic_bad.h outside the scoped dirs")
    rc, out = run_lint(atomic_fixture)
    expect(rc == 0,
           "rule stays silent for files outside --chk-atomic-dirs",
           out, failures)

    print("fixture: allow_bad.cc")
    rc, out = run_lint(os.path.join(FIXTURES, "allow_bad.cc"))
    expect(rc != 0 and out.count("bad-allow") == 2,
           "flags both malformed allow comments", out, failures)

    print("repository: src/ must be clean")
    rc, out = run_lint()
    expect(rc == 0, "src/ passes fm_lint", out, failures)

    if failures:
        print(f"\n{len(failures)} expectation(s) failed", file=sys.stderr)
        return 1
    print("\nall expectations passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
