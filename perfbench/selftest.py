"""Show that the benchmark's correctness gate is not vacuous.

From the root of a checkout:

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

It copies the program's sources, BENCHMARK.json and the benchmark's own
files into a scratch directory inside the checkout.  For each workload it
runs the copy for one short pass three times: with one recorded generator
degree changed in the copy's expected.json, with the recorded digests
changed (both must fail: exit code 1 and ``"correct": false``), and with
expected.json untouched on ``--seed`` (must pass with ``"failed": 0``).
It then removes the sources from the copy and checks that the benchmark
refuses to run there: exit code not 0 and no result line.  Prints one
line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, script: list[str], args: list[str]):
    done = subprocess.run(script + args, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=20261017)
    parser.add_argument("--workload", nargs="*")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = args.workload or [w["name"] for w in json.load(fh)["workloads"]]

    ok = True

    def report(passed: bool, what: str) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {what}", flush=True)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest-") as copy:
        copy = Path(copy)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copy2(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
        shutil.copytree(HERE, copy / HERE.name, ignore=ignore)
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        run = [sys.executable, str(copy / HERE.name / "run.py")]
        expected_path = copy / HERE.name / "expected.json"
        recorded = expected_path.read_text(encoding="utf-8")

        def corrupt(what: str) -> None:
            expected = json.loads(recorded)
            if what == "generator degree":
                for key in ("chords", "scan", "example_235"):
                    expected[key]["generator_degrees"][-1] += 1
            else:
                for name, value in expected["digests"].items():
                    expected["digests"][name] = ("0" if value[0] != "0" else "1") + value[1:]
            expected_path.write_text(json.dumps(expected), encoding="utf-8")

        for name in names:
            base = ["--workload", name, "--seed", str(args.seed), "--seconds", "1", "--trace", "0"]
            for what in ("generator degree", "digest"):
                corrupt(what)
                code, result = _run(copy, run, base)
                report(
                    code == 1 and result is not None and not result["correct"] and result["failed"] > 0,
                    f"{name}: a corrupted recorded {what} fails the gate (exit {code})",
                )
            expected_path.write_text(recorded, encoding="utf-8")
            code, result = _run(copy, run, base)
            report(
                code == 0 and result is not None and result["correct"] and result["failed"] == 0,
                f"{name}: seed {args.seed} passes with fail ratio "
                f"{result['failed'] if result else '?'}/{result['attempted'] if result else '?'}",
            )

        shutil.rmtree(copy / "src")
        code, result = _run(copy, run, ["--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "0"])
        report(code != 0 and result is None,
               f"without the program's sources the benchmark exits {code} and prints no result")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
