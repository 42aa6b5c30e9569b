"""canring benchmark: one seeded workload per run, checked and timed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chords-qq --seed 1 --seconds 20 --trace 0

The workload runs in this process as a closed loop with one client and no
threads: the jobs of a pass run one after another, and passes repeat while
another one still fits in ``--seconds`` (there is always at least one).
Outputs are checked outside the timed region: the first pass against
independent references and the recorded values in ``expected.json``,
every later pass against the first.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count jobs over
all passes, and ``metrics`` holds the end-to-end metrics of BENCHMARK.json
(``--trace 0``) or its per-layer metrics (``--trace 1``).  A failed check
makes the exit code 1; a run that cannot start exits with 2 and prints no
result.

Times are rescaled to a reference core speed sampled while they run (see
speed.py): on a shared machine raw times of one input drift too far
between runs to compare commits.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
record spans around the entry points of canring's modules (see spans.py),
and ``trace.overhead_ratio`` is the traced over the untraced pass time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    src = ROOT / "src"
    if not (src / "canring" / "__init__.py").is_file():
        _fail(f"no canring sources under {src}")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _setup_seconds(args) -> float:
    """Interpreter start, import of canring and input generation, timed in
    fresh processes; the median of several.  Each process samples its own
    core speed (see speed.py) and reports it with the kernel time spent, so
    the time is rescaled like the pass times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        took = time.perf_counter() - start
        if done.returncode != 0:
            _fail(f"set-up probe failed: {done.stderr.strip()}")
        core, spent = (float(x) for x in done.stdout.split())
        times.append((took - spent) * core)
    return statistics.median(times)


def _expected():
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def _metric_specs(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


class Passes:
    """Timings of the passes of one kind (untraced or traced): raw seconds,
    core speed, and seconds rescaled to the reference speed."""

    def __init__(self):
        self.raw_wall: list[float] = []
        self.raw_cpu: list[float] = []
        self.speed: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.items_ms: list[float] = []


class Gate:
    """Checks each output as it is produced: the first pass against the
    workload's references, later passes against the first."""

    def __init__(self, jobs, expected):
        self.jobs = jobs
        self.expected = expected
        self.fingerprints: list[bytes] = []
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, k: int, output) -> None:
        self.attempted += 1
        job = self.jobs[k]
        fingerprint = hashlib.sha256(repr(output).encode("utf-8")).digest()
        if len(self.fingerprints) < len(self.jobs):
            self.fingerprints.append(fingerprint)
            verdict = job.check(output, self.expected)
            if verdict:
                self.failures.append(f"{job.label}: {verdict}")
        elif fingerprint != self.fingerprints[k]:
            self.failures.append(f"{job.label}: output differs from the first pass")


def run_pass(jobs, gate: Gate, sampler, record: Passes, wrap=None) -> None:
    """Runs the jobs one after another.  Only the jobs themselves are timed:
    the gate and the calibration kernel are taken off."""
    first_sample = len(sampler.samples)
    wall = cpu = 0.0
    items = []
    for k, job in enumerate(jobs):
        kernel0 = sampler.spent
        wall0, cpu0 = time.perf_counter(), time.process_time()
        output = job.run() if wrap is None else wrap(job.run)
        took_wall, took_cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        kernel = sampler.spent - kernel0
        wall += took_wall - kernel
        cpu += took_cpu - kernel
        items.append((took_wall - kernel) * 1e3)
        gate(k, output)
    core = sampler.speed(first_sample)
    record.raw_wall.append(wall)
    record.raw_cpu.append(cpu)
    record.speed.append(core)
    record.wall.append(wall * core)
    record.cpu.append(cpu * core)
    record.items_ms += [ms * core for ms in items]


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _setup_probe(args) -> int:
    with speed.Sampler() as sampler:
        workloads = _import_program()
        workloads.WORKLOADS[args.workload](args.seed)
    print(sampler.speed(), sampler.spent)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _setup_probe(args)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    setup_s = None if args.trace else _setup_seconds(args)
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    gate = Gate(jobs, _expected())
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()

    plain, traced = Passes(), Passes()
    start = time.perf_counter()
    with speed.Sampler() as sampler:
        while True:
            run_pass(jobs, gate, sampler, plain)
            if tracer is not None:
                tracer.start_pass()
                try:
                    run_pass(jobs, gate, sampler, traced, tracer.item)
                finally:
                    tracer.end_pass()
            spent = time.perf_counter() - start
            last = plain.raw_wall[-1] + (traced.raw_wall[-1] if tracer else 0.0)
            if spent + last > args.seconds:
                break

    if tracer is None:
        values = {
            "wall_s": statistics.median(plain.wall),
            "cpu_s": statistics.median(plain.cpu),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        specs = _metric_specs("end_to_end")
        absent = {}
    else:
        values = _layer_values(tracer, plain, traced)
        specs = _metric_specs("per_layer")
        absent = tracer.absent

    metrics = {}
    for spec in specs:
        name = spec["name"]
        entry = {"value": values.get(name), "unit": spec["unit"]}
        if entry["value"] is None:
            owner = max((h for h in absent if name.startswith(h + ".")), key=len, default=None)
            entry["absent"] = absent[owner] if owner else "not measured"
        metrics[name] = entry

    for line in gate.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not gate.failures else 1


def _layer_values(tracer, plain: Passes, traced: Passes) -> dict:
    per_pass = []
    for k, core in enumerate(traced.speed):
        metrics = tracer.pass_metrics(k)
        for key in metrics:
            if key.endswith(".self_s"):
                metrics[key] *= core
        per_pass.append(metrics)
    values = {}
    for key in per_pass[0]:
        values[key] = statistics.median(p[key] for p in per_pass)
    for layer in ("exactla.RowBasis.add", "exactla.SparseRowBasis.add"):
        useful = values.pop(f"{layer}.useful", None)
        if useful is not None:
            # 0 when the layer gets no calls on this workload
            values[f"{layer}.useful_ratio"] = useful / max(values[f"{layer}.calls"], 1)
    values["trace.overhead_ratio"] = statistics.median(traced.wall) / statistics.median(plain.wall)
    values["bench.raw_wall_s"] = statistics.median(plain.raw_wall)
    values["bench.raw_cpu_s"] = statistics.median(plain.raw_cpu)
    values["bench.core_speed"] = statistics.median(plain.speed)
    values["bench.items"] = len(plain.items_ms)
    values["bench.item_p50_ms"] = statistics.median(plain.items_ms)
    values["bench.item_p90_ms"] = _percentile(plain.items_ms, 90)
    return values


if __name__ == "__main__":
    sys.exit(main())
