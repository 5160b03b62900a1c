"""Benchmark for the pointtree CLI: end-to-end timings, or per-layer when traced.

    python3 perfbench/run.py --workload infer-2048 --seed 1 --seconds 30 --trace 0

Runs the workload's CLI commands in process through `cli.main(argv)`, round
after round, until `--seconds` have passed, and checks every output. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the
environment, input and output hashes and per-command figures. See
perfbench/README.md for the workloads and metrics.
"""

import os
import sys

BLAS_THREADS = "1"  # at most nproc; pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".perfbench_work"  # inside the checkout; listed in .gitignore
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120

# the per-command figures the README names, from the median wall time
COMMAND_FIGURES = {
    "train": ("train.shapes_per_s", "1/s", lambda shapes, wall: shapes / wall),
    "reconstruct": ("reconstruct_s", "s", lambda shapes, wall: wall / shapes),
    "segment": ("segment_s", "s", lambda shapes, wall: wall / shapes),
    "generate": ("generate.shapes_per_s", "1/s", lambda shapes, wall: shapes / wall),
    "eval": ("eval_s", "s", lambda shapes, wall: wall),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tree_digest(directory) -> str:
    """sha256 over the relative paths and bytes of every file below `directory`."""
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, directory).encode() + b"\0")
            digest.update(checks.sha256_file(path).encode())
    return digest.hexdigest()


def set_up(workload, seed, work):
    """Write the inputs SETUP_REPEATS times, each in a fresh interpreter.

    Returns the seconds each set-up reported for its imports and writes, the
    directory of the last one and the digest of each, which must agree:
    inputs depend on the seed alone.
    """
    times, digests = [], []
    for k in range(SETUP_REPEATS):
        target = os.path.join(work, f"setup{k}")
        done = subprocess.run(
            [sys.executable, workloads.__file__, workload, str(seed), target],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"input set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
        digests.append(tree_digest(target))
        if k + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    return times, target, digests


def environment(seed) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    names = []
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
    cpu = names[0] if names else platform.processor() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the pinned request."""
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"{BLAS_THREADS} (requested)"


class Runner:
    """Runs a workload's command cycle, checks outputs and records hashes."""

    def __init__(self, commands, cli):
        self.commands = commands
        self.cli = cli
        self.attempted = 0
        self.failures = []
        self.hashes = {}  # command kind -> list of distinct {output: sha256}
        self._verified = set()

    def round(self, tracer=None) -> dict:
        """Run every command once; returns {kind: wall seconds}."""
        return {cmd.kind: self._run(cmd, tracer) for cmd in self.commands}

    def _run(self, cmd, tracer) -> float:
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(cmd.argv)
                else:
                    code = tracer.root(f"cli.{cmd.kind}", self.cli.main, cmd.argv)
        except Exception as exc:  # a crash is one failed operation, not the end
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        self.attempted += 1
        try:
            if code != 0:
                raise checks.CheckError(f"exit {code}: {err.getvalue().strip()}")
            self._verify(cmd, out.getvalue())
        except (checks.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            self.failures.append(f"{cmd.kind}: {exc}")
        return wall

    def _verify(self, cmd, stdout):
        """Check outputs unless these exact bytes already passed the check."""
        digests = {path: checks.sha256_file(path) for path in cmd.outputs}
        digests["stdout"] = checks.sha256_text(stdout)
        seen = self.hashes.setdefault(cmd.kind, [])
        if digests not in seen:
            seen.append(digests)
        key = (cmd.kind, tuple(sorted(digests.items())))
        if key not in self._verified:
            cmd.check(stdout)
            self._verified.add(key)


def median_walls(rounds) -> dict:
    return {kind: statistics.median(r[kind] for r in rounds) for kind in rounds[0]}


def traced_phase(runner, modules, until):
    """Traced rounds until `until`, at least two so counts can be compared."""
    tracer = tracing.Tracer()
    tracer.install(modules)
    walls, per_round, spans = [], [], []
    try:
        while len(walls) < 2 or time.perf_counter() < until:
            tracer.reset()
            walls.append(runner.round(tracer))
            per_round.append(tracer.layer_metrics())
            spans.append(tracer.spans)
    finally:
        tracer.uninstall()
    return walls, per_round, spans


def summarize_layers(per_round, overhead_pct):
    """Median per-layer times; counts must repeat exactly in every round."""
    metrics, problems = {}, []
    for name, unit in tracing.per_layer_units().items():
        if name == "trace.overhead_pct":
            value = overhead_pct
        elif unit == "count":
            values = {r[name] for r in per_round}
            if len(values) > 1:
                problems.append(f"{name} differs across traced rounds: {sorted(values)}")
            value = per_round[0][name]
        else:
            value = statistics.median(r[name] for r in per_round)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,index,name,start,end,parent\n")
        for r, round_spans in enumerate(spans):
            for i, (name, start, end, parent) in enumerate(round_spans):
                fh.write(f"{r},{i},{name},{start!r},{end!r},{parent}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.SRC / "pointtree" / "cli.py").is_file():
        print(f"error: no pointtree sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    work = os.path.join(workloads.ROOT, WORK_DIR, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    setup_times, inputs, input_digests = set_up(args.workload, args.seed, work)
    os.chdir(inputs)
    from pointtree import autodiff, cli, dataio, geometry, metrics, model, training

    modules = {m.__name__.rsplit(".", 1)[1]: m
               for m in (autodiff, cli, dataio, geometry, metrics, model, training)}
    commands = workloads.commands(args.workload, args.seed)
    runner = Runner(commands, cli)
    problems = []
    if len(set(input_digests)) != 1:
        problems.append("set-up wrote different inputs for the same seed")

    start = time.perf_counter()
    untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
    untraced = []
    while not untraced or time.perf_counter() < untraced_until:
        untraced.append(runner.round())
    walls = median_walls(untraced)
    round_s = sum(walls.values())

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs sha256 {input_digests[-1]}  ({workloads.WORKLOADS[args.workload]})")
    print(f"setup_s samples {', '.join(f'{t:.4f}' for t in setup_times)}")
    for cmd in commands:
        name, unit, figure = COMMAND_FIGURES[cmd.kind]
        print(f"{name} {figure(cmd.shapes, walls[cmd.kind]):.6g} {unit} "
              f"(median of {len(untraced)} untraced commands)")

    result = {"env": env, "inputs_sha256": input_digests[-1], "setup_s": setup_times,
              "untraced_rounds": untraced, "output_sha256": runner.hashes}
    if args.trace:
        traced, per_round, spans = traced_phase(runner, modules, start + args.seconds)
        traced_s = sum(median_walls(traced).values())
        overhead_pct = 100.0 * (traced_s / round_s - 1.0)
        metrics_out, count_problems = summarize_layers(per_round, overhead_pct)
        problems += count_problems
        write_spans(os.path.join(work, "spans.csv"), spans)
        result.update(traced_rounds=traced, per_layer_rounds=per_round)
        print(f"tracing overhead {overhead_pct:+.2f}% "
              f"({len(traced)} traced rounds of {traced_s:.4f} s against "
              f"{len(untraced)} untraced of {round_s:.4f} s)")
        seen = {k.rsplit(".", 1)[1] for k in per_round[0] if k.startswith("autodiff.fwd_calls.")}
        extra = sorted(seen - set(tracing.PRIMITIVE_KINDS))
        if extra:
            print("primitive kinds outside the per-layer list: " + ", ".join(extra))
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics_out = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "round_s": {"value": round_s, "unit": "s"},
        }

    for kind, distinct in runner.hashes.items():
        note = "" if len(distinct) == 1 else f"  ({len(distinct)} distinct across rounds)"
        print(f"output sha256 {kind}: "
              + ", ".join(f"{p}={h[:16]}" for p, h in distinct[0].items()) + note)
    failed = len(runner.failures)
    print(f"ops_failed {failed} of ops_total {runner.attempted}")
    for line in runner.failures + problems:
        print(f"problem: {line}")
    result.update(metrics=metrics_out, failures=runner.failures, problems=problems)
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
