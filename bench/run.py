"""Benchmark of the mpqc command line: time to a checked verdict.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

``all`` runs every workload with --trace 0 and then --trace 1.

Each workload runs the ``mpqc`` CLI (``src/mpqc``, nothing installed) in
fresh single-threaded processes, one at a time: a closed loop with one
client.  Fresh processes matter because the field cache and the component
family cache are process-global and users pay both cold on every
invocation.  Every report is checked against ``bench/reference.json``.

--trace 0 repeats the workload for about S seconds and reports the
end-to-end metrics, each the median over those runs: wall and CPU time of
the CLI processes in units of a fixed reference kernel timed on the same CPU
while they ran (``wall_ref``, ``cpu_ref``; see HostProbe), peak memory,
import set-up time in seconds scaled the same way (see measure_setup), and
verified operations.  Raw seconds are printed alongside.

--trace 1 runs the workload untraced, then once more with every public
mpqc function spanned from ``bench/spans.py``, and reports the per-layer
metrics.  The verdicts are checked again on the traced run.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
record, including the environment and the merged spans, is written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

from spans import layer_metrics, merge  # noqa: E402
from workloads import WORKLOADS, Counts, judge, load_reference  # noqa: E402

RUN_LIMIT_S = 165  # whole invocation, including set-up; a CLI process is killed past it
SETUP_SAMPLES = 15
PROBE_INTERVAL_S = 0.05
# typical CPU time of one reference_kernel pass on the 2-vCPU Xeon host the
# benchmark was written on; it fixes the scale of setup_s and nothing else
REFERENCE_KERNEL_S = 2.8e-3
GF_LOOP_OPS = 200_000
GF_LOOP_REPEATS = 5


def read_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "commit": read_commit(ROOT),
        "seed": seed,
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def run_process(cmd: list[str], deadline: Deadline) -> dict:
    """Run one process to completion; wall, CPU and peak RSS from wait4.

    The process is killed when the deadline passes.
    """
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    OUT.mkdir(exist_ok=True)
    with open(OUT / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline.left(), 0.0), kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    fault = None
    if killed:
        fault = "timed out"
    elif proc.returncode < 0:
        fault = f"killed by signal {-proc.returncode}"
    if fault:
        tail = (OUT / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        fault = "; ".join([fault, *tail])
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "stdout": stdout.decode(errors="replace"),
        "fault": fault,
    }


def measure_setup(deadline: Deadline) -> dict:
    """Fresh interpreter to ``import mpqc.cli`` done, beside the bare floor.

    ``setup_s`` is in seconds on a host where one reference_kernel pass takes
    REFERENCE_KERNEL_S: the raw times are scaled by that over the probe's
    mean during these samples, so host drift between runs cancels as it does
    for wall_ref.  The raw times are kept as ``setup_raw_s``.
    """
    py = sys.executable
    run_process([py, "-c", "import mpqc.cli"], deadline)  # compiles .pyc once; users pay it once
    setup, floor = [], []
    with HostProbe() as probe:
        for _ in range(SETUP_SAMPLES):
            floor.append(run_process([py, "-c", "pass"], deadline)["wall_s"])
            r = run_process([py, "-c", "import mpqc.cli"], deadline)
            if r["exit"] != 0:
                raise RuntimeError("importing mpqc.cli failed: " + (OUT / "stderr.txt").read_text()[-500:])
            setup.append(r["wall_s"])
    scale = REFERENCE_KERNEL_S / probe.mean()
    return {
        "setup_s": spread([t * scale for t in setup]),
        "setup_raw_s": spread(setup),
        "floor_s": spread(floor),
        "ref_s": probe.mean(),
    }


def run_rep(w, seed: int, ref: dict, deadline: Deadline, traced: bool) -> dict:
    """One workload run: every CLI process of ``w``, one after another."""
    rep = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "counts": Counts(), "spans": []}
    for argv in w.argvs(seed):
        argv = [*argv, "--format", "json"]
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "mpqc.cli", *argv]
        r = run_process(cmd, deadline)
        exit_code, stdout, fault = r["exit"], r["stdout"], r["fault"]
        if traced and fault is None:
            try:
                wrapped = json.loads(stdout)
                exit_code, stdout = wrapped["exit"], wrapped["stdout"]
                rep["spans"].append(wrapped["spans"])
            except (ValueError, KeyError):
                fault = f"traced run failed (exit {r['exit']})"
        rep["counts"].add(judge(w, ref, exit_code, stdout, fault))
        rep["wall_s"] += r["wall_s"]
        rep["cpu_s"] += r["cpu_s"]
        rep["rss_mb"] = max(rep["rss_mb"], r["rss_mb"])
    return rep


def gf_rates(seed: int) -> dict[str, float]:
    """Field add/mul operations per second in a fixed loop, outside the workloads."""
    sys.path.insert(0, str(SRC))
    from mpqc.gf import field

    rng = random.Random(seed)
    out = {}
    for q, (p, m) in ((81, (3, 4)), (289, (17, 2))):
        f = field(p, m)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(1000)]
        for op in ("mul", "add"):
            fn = getattr(f, op)
            times = []
            for _ in range(GF_LOOP_REPEATS):
                t0 = time.perf_counter()
                for _ in range(GF_LOOP_OPS // len(pairs)):
                    for a, b in pairs:
                        fn(a, b)
                times.append(time.perf_counter() - t0)
            out[f"gf.{op}_per_s.q{q}"] = GF_LOOP_OPS / statistics.median(times)
    return out


def reference_kernel(n: int = 24, p: int = 251, keys: int = 250) -> int:
    """Eliminate a fixed n x n matrix mod p, then count ``keys`` random tuples.

    A fixed amount of pure-Python work of the two kinds the engine's hot
    loops do, list arithmetic and small-object hashing, but independent of
    its code, so a change to mpqc cannot move it.  Together the two track the
    engine's slowdown under host contention better than either alone.
    """
    rng = random.Random(12345)
    m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    inv = [0] + [pow(i, p - 2, p) for i in range(1, p)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = inv[m[r][c]]
        row = m[r] = [x * f % p for x in m[r]]
        for i in range(n):
            g = m[i][c]
            if i != r and g:
                m[i] = [(a - g * b) % p for a, b in zip(m[i], row)]
        r += 1
    counts: dict[tuple, int] = {}
    for _ in range(keys):
        t = tuple(rng.randrange(p) for _ in range(6))
        counts[t] = counts.get(t, 0) + 1
    return r + len(counts)


class HostProbe:
    """Samples the speed of the CPU the CLI processes run on, while they run.

    On a shared host the throughput of one virtual CPU can swing 2x within
    seconds.  Every PROBE_INTERVAL_S a thread of this process, pinned to the
    same CPU as the CLI, times one reference_kernel pass in thread CPU time;
    the mean is the host's current cost of a fixed amount of work.  The probe
    takes about 6 % of that CPU, which shows in wall time only.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample()

    def _sample(self):
        t0 = time.thread_time()
        reference_kernel()
        self.samples.append(time.thread_time() - t0)

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self._sample()

    def mean(self) -> float:
        return statistics.fmean(self.samples)


def timed_reps(w, seed, ref, deadline, seconds, traced=False) -> list[dict]:
    """Repeat the workload while the next run is expected to end within ``seconds``.

    Each run carries ``ref_s``, the mean reference_kernel time while it ran.
    """
    reps = []
    start = time.perf_counter()
    while True:
        with HostProbe() as probe:
            rep = run_rep(w, seed, ref, deadline, traced)
        rep["ref_s"] = probe.mean()
        reps.append(rep)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if elapsed + typical > seconds or typical > deadline.left():
            return reps


def sample_reps(reps: list[dict]) -> list[dict]:
    """A run with a failed operation is not a time sample."""
    good = [r for r in reps if r["counts"].failed == 0]
    return good or reps


def total_counts(reps: list[dict]) -> Counts:
    c = Counts()
    for r in reps:
        c.add(r["counts"])
    return c


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own benchmark process."""
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mpqc" / "cli.py").is_file():
        print(f"error: no mpqc source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    deadline = Deadline(RUN_LIMIT_S)
    w = WORKLOADS[args.workload]
    ref = load_reference()
    env = environment(args.seed)
    # the CLI processes inherit this CPU, and the probe samples the same one
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env["workload"], env["trace"], env["pinned_cpu"] = w.name, args.trace, cpu
    setup = measure_setup(deadline)
    record: dict = {"env": env, "setup": setup}

    if args.trace:
        plain = timed_reps(w, args.seed, ref, deadline, args.seconds / 2)
        traced = timed_reps(w, args.seed, ref, deadline, 0, traced=True)[0]
        reps = [*plain, traced]
        spans = merge(traced["spans"])
        metrics = layer_metrics(spans)
        metrics.update(gf_rates(args.seed))
        metrics["trace.overhead"] = (traced["wall_s"] / traced["ref_s"]) / statistics.median(
            r["wall_s"] / r["ref_s"] for r in sample_reps(plain)
        )
        units = {k: _layer_unit(k) for k in metrics}
        record["spans"] = spans
    else:
        reps = timed_reps(w, args.seed, ref, deadline, args.seconds)
        timed = sample_reps(reps)
        for r in timed:
            r["wall_ref"] = r["wall_s"] / r["ref_s"]
            r["cpu_ref"] = r["cpu_s"] / r["ref_s"]
        stats = {k: spread([r[k] for r in timed]) for k in ("wall_ref", "cpu_ref", "wall_s", "cpu_s", "rss_mb")}
        metrics = {
            "wall_ref": stats["wall_ref"]["median"],
            "cpu_ref": stats["cpu_ref"]["median"],
            "peak_rss_mb": stats["rss_mb"]["median"],
            "setup_s": setup["setup_s"]["median"],
            "ops_verified": min(r["counts"].verified for r in reps),
        }
        units = {"wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s", "ops_verified": "count"}
        record["stats"] = stats

    env["loadavg_after"] = list(os.getloadavg())
    counts = total_counts(reps)
    record["reps"] = [
        {k: (v.__dict__ if isinstance(v, Counts) else v) for k, v in r.items() if k != "spans"} for r in reps
    ]
    record["metrics"] = metrics

    print("env " + json.dumps(env))
    s, raw, f = setup["setup_s"], setup["setup_raw_s"], setup["floor_s"]
    print(f"setup_s      median {s['median']:.4f} s  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}"
          f"  (raw {raw['median']:.4f} s, bare interpreter {f['median']:.4f} s)")
    if not args.trace:
        for key, name, unit in (
            ("wall_ref", "wall_ref", "ref"), ("cpu_ref", "cpu_ref", "ref"),
            ("wall_s", "wall_s", "s"), ("cpu_s", "cpu_s", "s"), ("rss_mb", "peak_rss_mb", "MB"),
        ):
            st = record["stats"][key]
            print(f"{name:<12} median {st['median']:.4f} {unit}  q1 {st['q1']:.4f}  q3 {st['q3']:.4f}  n={st['n']}")
    print(f"ops_verified {counts.verified}  ops_unreached {counts.unreached}  ops_failed {counts.failed}"
          f"  (over {len(reps)} workload runs)")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:<52} {value:.6g} {units[name]}")
    for note in dict.fromkeys(counts.notes):
        print("failure: " + note)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(json.dumps({
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if "_per_s." in name:
        return "1/s"
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    raise SystemExit(main())
