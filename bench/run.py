#!/usr/bin/env python3
"""Benchmark of the lfverify verifier on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is loaded from src/.
One caller drives the load as a closed loop: each operation starts after the
previous one has finished, and only one worker process exists at a time.  A
run repeats whole rounds of its workload's operations until S seconds have
passed, checks every operation's output against references computed apart
from the program (checks.py), and prints a line of run information followed
by the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a run whose child processes carry the wrappers in tracing.py.  Reported times
are host-scaled (hostspeed.py); the raw wall times are in the info line.  Run
outputs go to .bench_build/lfverify/.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import hostspeed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles"
OUT = ROOT / ".bench_build" / "lfverify"

CLI_CODE = "import sys; from lfverify.cli import main; sys.exit(main())"
SETUP_IMPORTS = 5

# zeros-long: one-shot `lfverify zeros` on a character and its conjugate
LONG_MODULUS = 5
LONG_PAIR = (0, 2)
LONG_T = 200.0
LONG_STEP = 0.02  # the CLI's default --step, where its scan starts
LONG_MP_SAMPLE = 3  # zeros per operation checked with mpmath

# zeros-wide: every primitive character of modulus 3..12, windows tiling (0, 100]
WIDE_MODULI = (3, 4, 5, 7, 8, 9, 11, 12)
WIDE_EDGES = (0.02,) + tuple(10.0 * k for k in range(1, 11))
WIDE_STEP = 0.02
WIDE_MP_WINDOWS = 26  # windows with one zero checked with mpmath

COEFF_SAMPLE = 8  # n per modulus per identities operation
COEFF_MAX_N = 10_000


class BenchError(RuntimeError):
    """The benchmark cannot measure: the program or its checkout is unusable."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv, cwd: Path, tag: str) -> tuple[int, float, float]:
    """Run argv to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(cwd / f"{tag}.out", "w") as out, open(cwd / f"{tag}.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def _importtime_self_seconds(stderr: str, package: str) -> float:
    # lines read "import time: <self us> | <cumulative us> | <indented module>"
    total = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            name = parts[2].strip()
            if (name == package or name.startswith(package + ".")) and parts[0][12:].strip().isdigit():
                total += int(parts[0][12:])
    return total / 1e6


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.rng = random.Random(seed)
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.op_seconds: list[float] = []  # wall times
        self.host_loops: list[float] = []
        self.peak_rss: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.spans: dict = {}
        self.setup: dict[str, float] = {}

    def timed(self, argv, tag: str) -> tuple[int, float, float]:
        """run_process between two host-speed loops."""
        self.host_loops.append(hostspeed.loop_seconds())
        result = run_process(argv, self.dir, tag)
        self.host_loops.append(hostspeed.loop_seconds())
        return result

    def measure_setup(self) -> None:
        """Median over fresh interpreters of `import lfverify.cli`, after one
        untimed import that leaves the bytecode cache as a user's would be."""
        argv = [sys.executable] + (["-X", "importtime"] if self.trace else []) + ["-c", "import lfverify.cli"]
        walls, scipy_s, own_s = [], [], []
        for i in range(SETUP_IMPORTS + 1):
            code, wall, _ = self.timed(argv, f"setup{i}")
            stderr = (self.dir / f"setup{i}.err").read_text()
            if code != 0:
                raise BenchError(f"import lfverify.cli failed: {stderr.strip()[-500:]}")
            if i:
                walls.append(wall)
                scipy_s.append(_importtime_self_seconds(stderr, "scipy"))
                own_s.append(_importtime_self_seconds(stderr, "lfverify"))
        self.setup = {
            "setup_wall_s": statistics.median(walls),
            "import.scipy_s": statistics.median(scipy_s),
            "import.lfverify_self_s": statistics.median(own_s),
        }

    def cli(self, argv: list[str]) -> tuple[int, str, str]:
        """One `lfverify` command in a fresh interpreter, as a user runs it."""
        tag = f"op{len(self.op_seconds) + 1}"
        trace_path = self.dir / f"{tag}.trace.json"
        if self.trace:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_CODE, *argv]
        code, wall, rss = self.timed(cmd, tag)
        self.op_seconds.append(wall)
        self.peak_rss.append(rss)
        if self.trace:
            tracing.merge(self.spans, json.loads(trace_path.read_text()))
        return code, (self.dir / f"{tag}.out").read_text(), (self.dir / f"{tag}.err").read_text()

    def record(self, problems: list[str], known_fault: bool = False) -> None:
        """Count an operation as failed when a check found a problem; a failure
        not caused by the known fault also makes the run incorrect."""
        if problems:
            self.failed += 1
            if not known_fault:
                self.problems.extend(problems)

    def loop(self, one_round) -> None:
        start = time.perf_counter()
        while True:
            one_round()
            if time.perf_counter() - start >= self.seconds:
                return


def _read_json(path: Path) -> tuple[dict, list[str]]:
    try:
        return json.loads(path.read_text()), []
    except (OSError, ValueError) as exc:
        return {}, [f"no readable report at {path.name}: {exc}"]


# ---------------------------------------------------------------------------
# workloads


def workload_constants(run: Run) -> None:
    simpson = checks.load_simpson(ORACLES / "simpson_constants.out")

    def one_round():
        path = run.dir / f"constants{len(run.op_seconds) + 1}.json"
        code, _, err = run.cli(["constants", "--out", str(path)])
        doc, problems = _read_json(path)
        problems += checks.check_constants(doc, code, simpson) if doc else [err[-300:]]
        run.record(problems)

    run.loop(one_round)


def _import_package():
    """The package's characters module, loaded into this process for the checks
    that need the program's character tables or coefficient functions."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from lfverify import characters

    return characters


def workload_identities(run: Run) -> None:
    characters = _import_package()
    chis = {q: characters.real_primitive_character(q) for q in checks.DISCRIMINANT}

    def one_round():
        path = run.dir / f"identities{len(run.op_seconds) + 1}.json"
        code, _, err = run.cli(["identities", "--out", str(path)])
        doc, problems = _read_json(path)
        problems += checks.check_identities(doc, code) if doc else [err[-300:]]
        for q, chi in chis.items():
            ns = run.rng.sample(range(1, COEFF_MAX_N + 1), COEFF_SAMPLE)
            problems += checks.check_coefficients(
                ns, q, lambda n: characters.nu(n, chi), lambda n: characters.upsilon(n, chi)
            )
        run.record(problems)

    run.loop(one_round)


def workload_zeros_long(run: Run) -> None:
    characters = _import_package()
    prims = characters.primitive_characters(LONG_MODULUS)
    tables = {k: list(prims[k].values) for k in LONG_PAIR}
    first, second = (tables[k] for k in LONG_PAIR)
    for table in tables.values():
        run.problems += checks.check_character(table)
    if any(abs(a.conjugate() - b) > 1e-12 for a, b in zip(first, second)):
        run.problems.append(f"characters {LONG_PAIR} mod {LONG_MODULUS} are not conjugate")
    parity = round(first[-1].real)
    order = list(LONG_PAIR)
    run.rng.shuffle(order)

    def one_round():
        count = 0
        for k in order:
            path = run.dir / f"zeros{len(run.op_seconds) + 1}.csv"
            code, out, err = run.cli(
                ["zeros", "--modulus", str(LONG_MODULUS), "--t-max", f"{LONG_T:g}",
                 "--char-index", str(k), "--csv", str(path)]
            )
            m = re.match(r"(\d+) zeros -> ", out)
            if code != 0 or not m:
                run.record([f"zeros --char-index {k}: exit {code}: {err.strip()[-300:]}"])
                continue
            gammas, radii, problems = checks.read_zero_csv(path, int(m.group(1)))
            sample = run.rng.sample(range(len(gammas)), min(LONG_MP_SAMPLE, len(gammas)))
            problems += checks.check_zeros(gammas, radii, tables[k], LONG_STEP, LONG_T, sample)[0]
            run.record(problems)
            count += len(gammas)
        # zeros of chi and of its conjugate on (0, T] are those of L(s, chi) with |gamma| <= T
        run.problems += checks.check_zero_count(count, LONG_MODULUS, parity, LONG_T)

    run.loop(one_round)


def workload_zeros_wide(run: Run) -> None:
    oracle = checks.load_zero_counts(ORACLES / "zero_counts.out")
    per_modulus = {q: sum(1 for (m, _) in oracle if m == q) for q in WIDE_MODULI}
    windows = [
        [q, index, a, b]
        for q in WIDE_MODULI
        for index in range(per_modulus[q])
        for a, b in zip(WIDE_EDGES, WIDE_EDGES[1:])
    ]
    run.rng.shuffle(windows)
    plan = run.dir / "plan.json"
    plan.write_text(json.dumps({"seconds": run.seconds, "step": WIDE_STEP, "windows": windows}))
    out, trace_path = run.dir / "wide.json", run.dir / "wide.trace.json"
    argv = [sys.executable, str(BENCH / "wide_worker.py"), str(plan), str(out)]
    code, _, rss = run_process(argv + ([str(trace_path)] if run.trace else []), run.dir, "wide")
    if code != 0:
        raise BenchError(f"zeros-wide session failed: {(run.dir / 'wide.err').read_text()[-500:]}")
    session = json.loads(out.read_text())
    if run.trace:
        tracing.merge(run.spans, json.loads(trace_path.read_text()))
    run.peak_rss.append(rss)
    run.host_loops += session["host_loops"]

    tables = {key: [complex(re_, im) for re_, im in t] for key, t in session["tables"].items()}
    for key, table in tables.items():
        run.problems += [f"character {key}: {p}" for p in checks.check_character(table)]
    ops = session["ops"]
    mp_windows = set(run.rng.sample(range(len(ops)), min(WIDE_MP_WINDOWS, len(ops))))
    counts = {key: 0 for key in tables}
    spans = {key: [] for key in tables}
    for i, op in enumerate(ops):
        key, a, b = f"{op['q']}:{op['index']}", op["a"], op["b"]
        gammas, table = op["gammas"], tables[key]
        sample = [run.rng.randrange(len(gammas))] if i in mp_windows and gammas else []
        problems, wrong = checks.check_zeros(gammas, op["radii"], table, a, b, sample)
        if op["flagged"]:
            problems.append(f"{op['flagged']} flagged interval(s)")
        # the anchor fault returns grid points; any other failure is unexplained
        known = len(problems) == 1 and bool(wrong) and checks.on_scan_grid(wrong, a, b, WIDE_STEP)
        run.record(problems, known_fault=known)
        run.op_seconds.append(op["seconds"])
        counts[key] += len(gammas)
        spans[key].append((a, b))

    rounds = len(ops) // len(windows)
    if rounds * len(windows) != len(ops):
        run.problems.append(f"{len(ops)} operations are not whole rounds of {len(windows)}")
    run.problems += checks.check_tiled_counts(spans, counts, tables, oracle, rounds, WIDE_EDGES[0])


WORKLOADS = {
    "constants": workload_constants,
    "identities": workload_identities,
    "zeros-long": workload_zeros_long,
    "zeros-wide": workload_zeros_wide,
}


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = got.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lfverify").iterdir()):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def tail(values: list[float]) -> dict:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 40:
        return {}
    p = math.floor(100 * (1 - 10 / n))
    return {f"op_s_p{p}": sorted(values)[math.ceil(p / 100 * n) - 1]}


def result(run: Run, scale: float) -> dict:
    if run.trace:
        values = dict(tracing.layer_values(run.spans, len(run.op_seconds)))
        values.update({k: v for k, v in run.setup.items() if k.startswith("import.")})
        values["trace.ops"] = len(run.op_seconds)
        values["trace.op_s_p50"] = scale * statistics.median(run.op_seconds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": scale * run.setup["setup_wall_s"], "unit": "s"},
            "op_s_p50": {"value": scale * statistics.median(run.op_seconds), "unit": "s"},
            "peak_rss_mb": {"value": max(run.peak_rss), "unit": "MB"},
        }
    return {
        "correct": not run.problems,
        "attempted": len(run.op_seconds),
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lfverify" / "cli.py").is_file() or not ORACLES.is_dir():
        print(f"error: no lfverify source checkout at {ROOT}", file=sys.stderr)
        return 2

    # one vCPU for the whole run, inherited by every child: the operations and
    # the host-speed loop then share a processor, so the loop sees its speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.measure_setup()
        WORKLOADS[args.workload](run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    scale = hostspeed.scale(run.host_loops)
    res = result(run, scale)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_samples": len(run.op_seconds),
        **tail([scale * t for t in run.op_seconds]),
        "op_wall_s_p50": statistics.median(run.op_seconds),
        "setup_wall_s": run.setup["setup_wall_s"],
        "host_loops": len(run.host_loops),
        "host_loop_s_p50": statistics.median(run.host_loops),
        "host_scale": scale,
        "problems": run.problems[:20],
        "environment": environment(),
    }
    (run.dir / "result.json").write_text(json.dumps({"info": info, "result": res}, indent=2) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
