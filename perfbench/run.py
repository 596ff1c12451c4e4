"""The wfano benchmark: three CLI workloads, timed end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload {audit,enumerate,series} \
        --seed N --seconds S --trace {0,1}

One parent process runs a closed loop with one client: it sends the next
op only after the previous one finished, and child interpreters run one
after another.  Every op calls `wfano.cli.main(argv)` in a child
interpreter (child.py) with stdout captured, and its output is checked
against references recorded from the program (refs/, see record_refs.py).

With --trace 0 the run measures ops for S seconds and reports the
end-to-end metrics.  With --trace 1 it runs a fixed set of ops twice, once
with the library's functions wrapped in spans (tracing.py) and once
without, and reports the per-layer metrics and the tracing overhead; the
fixed set makes the counts repeat exactly for a given seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it stamps the run.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from typing import Callable, Iterator, NamedTuple, Optional

from tracing import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SRC = "src"

WORKLOADS = ("audit", "enumerate", "series")
SETUP_SAMPLES = 36         # fresh interpreters timed for setup_s, spread
                           # over the run so that a slow spell of the host
                           # moves few of them
CAL_REF_S = 0.030          # calibration() seconds on a shared 2-vCPU VM in
                           # a fast spell; timed metrics are scaled to that
REPLY_TIMEOUT_S = 120.0    # a child that stays silent this long fails its op
TRACE_OPS = {"audit": 10, "enumerate": 3, "series": None}  # None: one pass

END_TO_END = (("op_s_p50", "s"), ("op_s_tail", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

_LAYER_MS = (
    "golden.match_rows", "wps.general_quasismooth", "wps.enumerate_families",
    "wps.generic_member", "census.is_terminal_family", "census.census",
    "blowup.divisor_multiplicity", "exactmath.implicit_eliminate",
    "exactmath.series_order", "rigidity.certify_row", "report.check_tables",
    "report.build_report", "report.to_json", "cli.main")
_LAYER_CALLS = (
    "golden.match_rows", "wps.general_quasismooth", "wps.generic_member",
    "census.is_terminal_family", "census.census", "blowup.triple",
    "exactmath.implicit_eliminate", "exactmath.series_order",
    "rigidity.certify_row", "report.build_report", "cli.main")
PER_LAYER = (
    (("golden.load.ms", "ms"),)
    + tuple((f"{n}.calls", "count") for n in _LAYER_CALLS)
    + tuple((f"{n}.self_ms", "ms") for n in _LAYER_MS)
    + (("wps.qs_pass_ratio", "ratio"), ("exactmath.series_terms", "count"),
       ("exactmath.coeff_bits_max", "bits"),
       ("rigidity.checks_total", "count"), ("cli.stdout_bytes", "bytes"))
    + tuple((f"{m}.raised", "count") for m in MODULES)
    + (("trace.op_s_p50", "s"),
       ("trace.untraced_op_s_p50", "s"), ("trace.overhead_ratio", "ratio")))


class ChildFailed(RuntimeError):
    """A child interpreter died, broke the protocol or stopped answering."""


class Child:
    """One client interpreter running child.py."""

    def __init__(self, root: str, trace: bool):
        # setup_s times imports from the bytecode cache, as an installed
        # CLI makes them, whatever the caller's environment says
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONDONTWRITEBYTECODE"}
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, SRC, "1" if trace else "0"], cwd=root,
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.buf = bytearray()
        try:
            self.hello = self._read()
        except ChildFailed:
            self.close()
            raise

    def _read(self) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while (end := self.buf.find(b"\n")) < 0:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise ChildFailed(f"no reply within {REPLY_TIMEOUT_S} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise ChildFailed(f"child exited with {self.proc.wait()}")
            self.buf += chunk
        line = bytes(self.buf[:end])
        del self.buf[:end + 1]
        try:
            return json.loads(line)
        except ValueError as exc:
            raise ChildFailed(f"unreadable reply: {exc}") from None

    def request(self, message: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(message).encode() + b"\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise ChildFailed(f"cannot write to child: {exc}") from None
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------- workloads

def load_refs(name: str) -> object:
    with open(os.path.join(HERE, "refs", f"{name}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


class Op(NamedTuple):
    """The argv lists of one op and the check of their outputs.

    Ops with the same `key` repeat one input; the timed run reduces them
    to their median time first, so that each input counts once.
    """

    calls: list[list[str]]
    check: Callable[[list[dict]], list[str]]
    key: Optional[str] = None


def _exit_problems(argv, result) -> list[str]:
    if result["code"] != 0:
        return [f"{' '.join(argv)}: exit {result['code']}: "
                f"{result['err'].strip()[-300:]}"]
    return []


def atom_values(atom: str) -> tuple[str, str]:
    """The two CLI values of a condition atom."""
    return ("I", "II") if atom == "type" else ("0", "nonzero")


def audit_ops(seed: int, golden: Optional[str] = None) -> Iterator[Op]:
    """check-tables, then every family's report under a seeded variant."""
    ref = load_refs("audit")
    extra = ["--golden", golden] if golden else []

    def check(calls, results) -> list[str]:
        problems = []
        for argv, res in zip(calls, results):
            problems += _exit_problems(argv, res)
            if res["code"] != 0:
                continue
            payload = json.loads(res["out"])
            if argv[0] == "check-tables":
                got = (payload["summary"], len(payload["discrepancies"]),
                       len(payload["documented"]))
                want = (ref["summary"], 0, ref["documented"])
                if got != want:
                    problems.append(f"check-tables: {got} != {want}")
            elif payload["discrepancies"] or payload["family"] != int(argv[1]):
                problems.append(f"{' '.join(argv)}: discrepancies "
                                f"{payload['discrepancies']}")
        return problems

    for i in itertools.count():
        rng = random.Random(f"audit:{seed}:{i}")
        calls = [["check-tables", "--json"] + extra]
        for no in range(1, ref["families"] + 1):
            argv = ["report", str(no), "--json"] + extra
            atoms = ref["atoms"][str(no)]
            if atoms:
                argv += ["--variant", ",".join(
                    f"{a}={rng.choice(atom_values(a))}"
                    for a in atoms)]
            calls.append(argv)
        yield Op(calls, lambda results, calls=calls: check(calls, results))


def enumerate_ops(seed: int) -> Iterator[Op]:
    """`enumerate --json` at the default max-weight; the input is fixed."""
    ref = load_refs("enumerate")
    argv = ["enumerate", "--json"]

    def check(results) -> list[str]:
        res = results[0]
        problems = _exit_problems(argv, res)
        if not problems and json.loads(res["out"]) != ref:
            problems.append("enumerate --json differs from families.tsv")
        return problems

    while True:
        yield Op([argv], check)


def series_ops(seed: int, refs: Optional[list] = None) -> Iterator[Op]:
    """`order` at every vertex point with an eliminated coordinate.

    Each pass walks a seeded shuffle of the points with its own member
    seed, so no (family, point, member seed) repeats within a run.  The
    op key is the point: a run ends inside a pass, and its cost per point
    spans two decades, so timing per point keeps the mix of a run fixed.
    """
    points = refs if refs is not None else load_refs("series")
    for p in itertools.count():
        rng = random.Random(f"series:{seed}:{p}")
        member_seed = str(rng.randrange(1, 1 << 31))
        order = list(points)
        rng.shuffle(order)
        for pt in order:
            argv = ["order", str(pt["family"]), "--point", pt["point"],
                    "--poly", pt["poly"], "--seed", member_seed]

            def check(results, argv=argv, want=pt["order"]) -> list[str]:
                res = results[0]
                problems = _exit_problems(argv, res)
                if not problems and res["out"].strip() != want:
                    problems.append(f"{' '.join(argv)}: "
                                    f"{res['out'].strip()} != {want}")
                return problems

            yield Op([argv], check, key=f"{pt['family']}:{pt['point']}")


def make_ops(workload: str, seed: int, golden: Optional[str] = None,
             series_refs: Optional[list] = None) -> Iterator[Op]:
    if workload == "audit":
        return audit_ops(seed, golden)
    if workload == "enumerate":
        return enumerate_ops(seed)
    return series_ops(seed, series_refs)


# a memo shared between ops would measure a cache no CLI user has, so only
# series (whose inputs never repeat within a run) shares one interpreter
FRESH_CHILD = {"audit": True, "enumerate": True, "series": False}


# --------------------------------------------------------------- measuring

class Client:
    """Runs ops in child interpreters, fresh per op or shared."""

    def __init__(self, root: str, fresh: bool, trace: bool = False):
        self.root, self.fresh, self.trace = root, fresh, trace
        self.child: Optional[Child] = None
        self.hellos: list[dict] = []

    def run(self, op: Op) -> dict:
        """{'s', 'rss_kb', 'trace', 'out_bytes', 'problems'} of one op."""
        try:
            if self.child is None:
                self.child = Child(self.root, self.trace)
                self.hellos.append(self.child.hello)
            reply = self.child.request({"calls": op.calls})
        except ChildFailed as exc:
            self.close()
            return {"problems": [f"child failed: {exc}"]}
        if self.fresh:
            self.close()
        results = reply["results"]
        try:
            problems = op.check(results)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return {"s": sum(r["s"] for r in results), "rss_kb": reply["rss_kb"],
                "trace": reply["trace"], "problems": problems,
                "out_bytes": sum(len(r["out"].encode()) for r in results)}

    def close(self) -> None:
        if self.child is not None:
            self.child.close()
            self.child = None


def setup_sample(root: str) -> tuple[float, float]:
    """Seconds to `import wfano.cli` and run `golden.data()` in a fresh
    interpreter, and seconds of child.calibration() in it just after."""
    child = Child(root, trace=False)
    try:
        cal_s = child.request({"calibrate": True})["cal_s"]
    finally:
        child.close()
    return child.hello["setup_s"], cal_s


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten ops
    beyond it, never below the median; the maximum for ten ops or fewer."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    k = max(n - 11, n // 2)
    return xs[k], 100.0 * (k + 1) / n


class Tally:
    """Ops attempted and failed, with the first few problems reported."""

    def __init__(self):
        self.attempted = self.failed = 0

    def add(self, outcome: dict) -> None:
        self.attempted += 1
        if outcome["problems"]:
            self.failed += 1
            if self.failed <= 5:
                for line in outcome["problems"][:3]:
                    print(f"op {self.attempted} failed: {line}",
                          file=sys.stderr)


def timed_run(root: str, workload: str, seed: int, seconds: float,
              **inputs) -> tuple[Tally, dict, dict]:
    setup_sample(root)  # untimed: leaves the bytecode cache warm
    samples: list[tuple[float, float]] = []  # (setup_s, cal_s)
    tally, by_key, rss = Tally(), {}, []
    client = Client(root, FRESH_CHILD[workload])
    start = time.perf_counter()
    deadline = start + seconds
    try:
        for op in make_ops(workload, seed, **inputs):
            now = time.perf_counter()
            if now >= deadline:
                break
            while (len(samples) < SETUP_SAMPLES and
                   now >= start + len(samples) * seconds / SETUP_SAMPLES):
                samples.append(setup_sample(root))
            outcome = client.run(op)
            tally.add(outcome)
            if "s" in outcome:
                key = op.key if op.key is not None else tally.attempted
                by_key.setdefault(key, []).append(outcome["s"])
                rss.append(outcome["rss_kb"])
    finally:
        client.close()
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(root))
    setup, cal = zip(*samples)
    if not by_key:
        raise SystemExit("error: no op completed")
    times = [statistics.median(ts) for ts in by_key.values()]
    tail_s, tail_pct = tail(times)
    wall = {"op_s_p50": statistics.median(times), "op_s_tail": tail_s,
            "setup_s": statistics.median(setup)}
    # the shared host's speed drifts by a third over minutes; scaling by
    # the run's median calibration time removes most of that drift, and
    # no change to the program can move the calibration
    scale = CAL_REF_S / statistics.median(cal)
    metrics = {name: s * scale for name, s in wall.items()}
    metrics["peak_rss_mb"] = max(rss) / 1024.0
    info = {"ops_timed": len(rss), "inputs_timed": len(times),
            "op_s_tail_percentile": tail_pct,
            "setup_samples": len(setup), "host_scale": scale,
            **{f"wall_{name}": s for name, s in wall.items()}}
    return tally, metrics, info


def _sum_traces(traces: list[dict]) -> dict:
    layers: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    raised: dict[str, int] = {}
    for tr in traces:
        for name, acc in tr["layers"].items():
            tot = layers.setdefault(name, [0, 0, 0])
            for j in range(3):
                tot[j] += acc[j]
        for key, n in tr["counters"].items():
            if key.endswith("_max"):
                counters[key] = max(counters.get(key, 0), n)
            else:
                counters[key] = counters.get(key, 0) + n
        for mod, n in tr["raised"].items():
            raised[mod] = raised.get(mod, 0) + n
    return {"layers": layers, "counters": counters, "raised": raised}


def trace_run(root: str, workload: str, seed: int,
              **inputs) -> tuple[Tally, dict, dict]:
    """Run the fixed op set traced and untraced, alternating which side
    goes first, and fold the traced spans into per-layer metrics."""
    ops = make_ops(workload, seed, **inputs)
    count = TRACE_OPS[workload] or len(load_refs("series"))
    fresh = FRESH_CHILD[workload]
    clients = {False: Client(root, fresh), True: Client(root, fresh, True)}
    tally = Tally()
    times: dict[bool, list[float]] = {False: [], True: []}
    traces, out_bytes = [], 0
    try:
        for i in range(count):
            op = next(ops)
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                outcome = clients[traced].run(op)
                tally.add(outcome)
                if "s" not in outcome:
                    continue
                times[traced].append(outcome["s"])
                if traced:
                    traces.append(outcome["trace"])
                    out_bytes += outcome["out_bytes"]
        loads = [h["trace"]["layers"]["golden.load"][1] / 1e6
                 for h in clients[True].hellos]
    finally:
        for client in clients.values():
            client.close()
    if not times[True] or not times[False]:
        raise SystemExit("error: no op completed")
    total = _sum_traces(traces)
    layers, counters = total["layers"], total["counters"]
    metrics: dict[str, float] = {"golden.load.ms": statistics.median(loads)}
    for name in _LAYER_CALLS:
        metrics[f"{name}.calls"] = layers.get(name, [0])[0]
    for name in _LAYER_MS:
        metrics[f"{name}.self_ms"] = layers.get(name, [0, 0, 0])[2] / 1e6
    tested = layers.get("wps.general_quasismooth", [0])[0]
    metrics["wps.qs_pass_ratio"] = (
        counters.get("wps.qs_passed", 0) / tested if tested else 0.0)
    for key in ("exactmath.series_terms", "exactmath.coeff_bits_max",
                "rigidity.checks_total"):
        metrics[key] = counters.get(key, 0)
    metrics["cli.stdout_bytes"] = out_bytes
    for mod in MODULES:
        metrics[f"{mod}.raised"] = total["raised"].get(mod, 0)
    traced_p50 = statistics.median(times[True])
    untraced_p50 = statistics.median(times[False])
    metrics.update({"trace.op_s_p50": traced_p50,
                    "trace.untraced_op_s_p50": untraced_p50,
                    "trace.overhead_ratio": traced_p50 / untraced_p50})
    return tally, metrics, {"ops_traced": len(times[True])}


# ------------------------------------------------------------------ output

def git_commit(root: str) -> str:
    """HEAD of the repository at root, or 'unknown' outside a git checkout."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def result_line(tally: Tally, metrics: dict, units: tuple) -> dict:
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units}}


def run(root: str, workload: str, seed: int, seconds: float, trace: bool,
        **inputs) -> tuple[dict, dict]:
    """(stamp, result) of one run; `inputs` override the golden data
    directory (audit) or the series references, for fault injection."""
    started = time.perf_counter()
    if trace:
        tally, metrics, info = trace_run(root, workload, seed, **inputs)
        units = PER_LAYER
    else:
        tally, metrics, info = timed_run(root, workload, seed, seconds,
                                         **inputs)
        units = END_TO_END
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(),
        "commit": git_commit(root), "nproc": os.cpu_count(),
        "ops": tally.attempted, "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "elapsed_s": round(time.perf_counter() - started, 3), **info,
    }
    return stamp, result_line(tally, metrics, units)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wfano benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, SRC, "wfano", "cli.py")):
        print(f"error: no {SRC}/wfano package under {root}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    stamp, result = run(root, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
