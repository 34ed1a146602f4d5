#!/usr/bin/env python3
"""The repository benchmark: `qsv run` and `qsv serve` end to end.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # every workload path, tiny registers
    python3 perfbench/run.py --record    # rewrite perfbench/references.json

Run it from the root of a source checkout. It builds `qsv` and the companion
program `qsvbench` under .bench_build/, generates the workload's circuits from
the seed with the library's own builders, runs them, and checks every result
against perfbench/references.json. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1. perfbench/README.md defines every metric and workload.
"""
import argparse
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
QSV = os.path.join(BUILD, "qsv", "tools", "qsv")
QSVBENCH = os.path.join(BUILD, "perfbench", "qsvbench")
REFERENCES = os.path.join(HERE, "references.json")

VARIANTS = 8        # circuit seeds per batch workload (seed % VARIANTS)
SETUP_REPEATS = 4   # batch set-ups per run; setup_s is their median

# Batch workloads: each job is one `qsv run` with `flags`; ranks, threads and
# policy repeat those flags for the in-process traced run and `qsv price`.
BATCH = {
    "qft": dict(kind="qft", qubits=22, param=20, ranks=4, threads=0,
                policy="blocking", flags=[]),
    "rcs_local": dict(kind="rcs", qubits=22, param=32, ranks=1, threads=0,
                      policy="blocking", flags=["--ranks", "1"]),
    "rcs_dist": dict(kind="rcs", qubits=22, param=8, ranks=4, threads=4,
                     policy="overlapped",
                     flags=["--ranks", "4", "--threads", "4",
                            "--policy", "overlapped"]),
}

# serve_mix: an open loop at a fixed offered rate against `qsv serve` at its
# defaults (2 workers), from one process with at most `connections` sockets.
SERVE = dict(
    rate_rps=8.0,         # two thirds of the ~12 req/s where it falls behind
    setups=10,            # server start-ups per run; setup_s is their median
    price_share=0.25,     # share of requests that are `price`
    repeat_share=0.5,     # share of runs drawn from the small repeated set
    price_repeat_share=0.25,  # share of prices drawn from the repeated set
    repeated_runs=4,      # run pool entries 0..3 repeat, the rest are distinct
    repeated_prices=2,    # price entries 0..1 repeat, the rest are distinct
    pool=4 + 9 * 18,      # `run` circuits with recorded digests
    run_qubits=(16, 17, 18),
    price_qubits=(20, 21, 22),
    random_gates=400,
    connections=min(4, len(os.sched_getaffinity(0))),
    latency_limit_ms=2500.0,  # goodput counts runs answered within it
)

# Every per-layer metric, in BENCHMARK.json order, with its unit. A traced run
# reports all of them; a layer its workload does not exercise reads 0.
PER_LAYER = [
    ("circuit.parse_s", "s"), ("circuit.plan_s", "s"), ("dist.alloc_s", "s"),
    ("dist.sweep_s", "s"), ("dist.local_s", "s"), ("dist.exchange_s", "s"),
    ("dist.observables_s", "s"), ("dist.digest_s", "s"),
    ("common.crc32_gbps", "GB/s"), ("dist.exchange_crc_share", "ratio"),
    ("sv.kernel_gbps", "GB/s"), ("sv.tiled_runs", "count"),
    ("sv.passes_saved", "count"), ("dist.gates_tiled", "count"),
    ("dist.gates_local", "count"), ("dist.gates_exchange", "count"),
    ("cluster.messages", "count"), ("cluster.bytes", "B"),
    ("cluster.delivered", "count"), ("cluster.checksum_failures", "count"),
    ("cluster.exchange_gbps", "GB/s"), ("perf.price_s", "s"),
    ("perf.model_runtime_s", "model_s"), ("perf.model_energy_j", "model_J"),
    ("serve.admission_hit_ms", "ms"), ("serve.admission_miss_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"), ("serve.queue_wait_tail_ms", "ms"),
    ("serve.execute_ms", "ms"), ("serve.run_p50_ms", "ms"),
    ("serve.run_tail_ms", "ms"), ("serve.plan_cache_hit_ratio", "ratio"),
    ("serve.repeat_share", "ratio"), ("serve.shed", "count"),
    ("serve.rejected", "count"), ("serve.deadline_expired", "count"),
    ("serve.failed", "count"), ("serve.peak_nodes_busy", "count"),
    ("loadgen.late_ms", "ms"), ("loadgen.behind", "count"),
    ("trace.coverage", "ratio"), ("trace.total_s", "s"),
    ("trace.untraced_job_s", "s"),
]

WORKLOADS = ("qft", "rcs_local", "rcs_dist", "serve_mix")


class BenchError(Exception):
    pass


class Ops:
    """Operations attempted, failed (any failure), and wrong (a result that
    contradicts its reference)."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def add(self, ok, wrong=False):
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.wrong += 1 if wrong else 0
        return ok


# ---------------------------------------------------------------- processes

def child_env():
    """The default environment: no OpenMP or qsv tuning variable reaches the
    programs, so CPU sharing behaves as users see it."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "QSV_"))}
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    return env


def run_job(args):
    """Runs a program to completion. Returns (stdout, exit code, wall seconds
    from start to exit, peak RSS in MiB from wait4)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, env=child_env())
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), p.returncode, wall, ru.ru_maxrss / 1024.0


def check_call(args, log):
    with open(log, "ab") as f:
        r = subprocess.run(args, stdout=f, stderr=subprocess.STDOUT,
                           env=child_env())
    if r.returncode != 0:
        with open(log, "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        raise BenchError(f"command failed: {' '.join(args)}\n{tail}")


def build():
    """Builds qsv (Release) and qsvbench from this checkout's sources."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(f"{ROOT} holds no qsv sources to build")
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    qsv_tree = os.path.join(BUILD, "qsv")
    if not os.path.isfile(os.path.join(qsv_tree, "CMakeCache.txt")):
        check_call(["cmake", "-S", ROOT, "-B", qsv_tree,
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    check_call(["cmake", "--build", qsv_tree, "--target", "qsv", "-j", jobs],
               log)
    pb_tree = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(pb_tree, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", pb_tree,
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DQSV_BUILD_DIR={qsv_tree}"], log)
    check_call(["cmake", "--build", pb_tree, "-j", jobs], log)


def gen(specs, workdir):
    """Writes one circuit per (kind, qubits, param, seed); returns the paths."""
    os.makedirs(workdir, exist_ok=True)
    lines, paths = [], []
    for kind, qubits, param, seed in specs:
        path = os.path.join(workdir, f"{kind}{qubits}_{param}_{seed}.qc")
        lines.append(f"{kind} {qubits} {param} {seed} {path}")
        paths.append(path)
    r = subprocess.run([QSVBENCH, "gen"], input="\n".join(lines) + "\n",
                       capture_output=True, text=True, env=child_env())
    if r.returncode != 0:
        raise BenchError(f"qsvbench gen failed: {r.stderr}")
    return paths


def trace_job(circuit, ranks, threads, policy, chrome, serve_sequence=False):
    """One in-process traced job (qsvbench trace); its JSON, or None."""
    args = [QSVBENCH, "trace", circuit, "--ranks", str(ranks),
            "--threads", str(threads), "--policy", policy, "--chrome", chrome]
    if serve_sequence:
        args.append("--no-observables")
    out, code, _, _ = run_job(args)
    if code != 0 or not out.strip():
        return None
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------- parsing

def parse_run(out):
    """The parts of `qsv run` output the benchmark checks or records."""
    r = dict(digest=None, z=[], backend=None)
    for line in out.splitlines():
        s = line.strip()
        if s.startswith("state crc32:"):
            r["digest"] = s.split(":", 1)[1].strip()
        elif s.startswith("<Z"):
            r["z"].append(s.split("=", 1)[1].strip())
        elif s.startswith("kernel backend:"):
            r["backend"] = s.split(":", 1)[1].strip()
    return r


def parse_price(out):
    """The modelled rows of the `qsv price` table."""
    rows = {}
    for line in out.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 2:
            rows[cells[0]] = cells[1]
    return {k: rows.get(k) for k in ("gates", "runtime", "total energy")}


def gate_count(circuit_text):
    return sum(1 for line in circuit_text.splitlines()
               if line.strip() and not line.startswith(("qubits", "name")))


def quantile(values, q):
    """Linear-interpolated quantile (0 for no values)."""
    v = sorted(values)
    if not v:
        return 0.0
    k = (len(v) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def tail_percentile(n):
    """The highest of a few fixed percentiles with ten samples beyond it."""
    for p in (0.99, 0.95, 0.9, 0.8, 0.75):
        if n * (1 - p) >= 10:
            return p
    return 0.5


def host_record(state_bytes, backend):
    """What a result needs to be compared only with results of its host."""
    node_dir = "/sys/devices/system/node"
    nodes = [d for d in os.listdir(node_dir)
             if d.startswith("node") and d[4:].isdigit()] \
        if os.path.isdir(node_dir) else []
    llc, best = None, -1
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for idx in (os.listdir(cache) if os.path.isdir(cache) else []):
        try:
            with open(os.path.join(cache, idx, "level")) as f:
                level = int(f.read())
            with open(os.path.join(cache, idx, "size")) as f:
                size = f.read().strip()
        except (OSError, ValueError):
            continue
        if level > best:
            best, llc = level, size
    build_type = None
    try:
        with open(os.path.join(BUILD, "qsv", "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return dict(nproc=len(os.sched_getaffinity(0)),
                numa_domains=len(nodes) or 1, kernel_backend=backend,
                build_type=build_type, llc=llc, statevector_bytes=state_bytes)


# ---------------------------------------------------------------- batch

def batch_inputs(spec, variant, workdir):
    """The job circuit of `variant` and its zero-gate twin."""
    return gen([(spec["kind"], spec["qubits"], spec["param"], variant),
                ("empty", spec["qubits"], 0, 0)], workdir)


def job_ok(out, code, ref):
    r = parse_run(out)
    return code == 0 and r["digest"] == ref["digest"] and \
        r["z"] == ref["z"], r


def batch_run(spec, variant, seconds, workdir, ref, trace):
    job, empty = batch_inputs(spec, variant, workdir)
    qsv_args = [QSV, "run", job] + spec["flags"]
    ops = Ops()
    if trace:
        return batch_trace(spec, job, qsv_args, ref, ops, workdir)

    # Set-up: the zero-gate circuit at the same width, ranks and engine,
    # half before the measured jobs and half after, so the median spans the
    # run.
    setups = []

    def setup():
        out, code, wall, _ = run_job([QSV, "run", empty] + spec["flags"])
        ok = code == 0 and parse_run(out)["digest"] == ref["empty_digest"]
        ops.add(ok, wrong=code == 0 and not ok)
        setups.append(wall)

    for _ in range(SETUP_REPEATS // 2):
        setup()

    walls, rss, good, backend = [], [], 0, None
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        out, code, wall, peak = run_job(qsv_args)
        ok, r = job_ok(out, code, ref)
        good += ops.add(ok, wrong=code == 0 and not ok)
        backend = backend or r["backend"]
        walls.append(wall)
        rss.append(peak)
    span = time.perf_counter() - t0
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        setup()

    # `qsv price` of the same circuit at the same ranks and policy must
    # print the recorded modelled rows.
    out, code, _, _ = run_job([QSV, "price", job, "--nodes",
                               str(spec["ranks"]), "--policy",
                               spec["policy"]])
    ok = code == 0 and parse_price(out) == ref["price"]
    ops.add(ok, wrong=code == 0 and not ok)

    metrics = {
        "goodput_rps": (good / span, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
        "success_rate": (1 - ops.failed / ops.attempted, "ratio"),
    }
    info = dict(jobs=len(walls), job_s=statistics.median(walls),
                job_walls=walls, setup_walls=setups,
                host=host_record((1 << spec["qubits"]) * 16, backend))
    return ops, metrics, info


def layer_metrics(t):
    """Per-layer metrics of one traced job, with the computed ratios."""
    L, C = t["layers"], t["counts"]
    ex = L["dist.exchange_s"]
    kernels = L["dist.sweep_s"] + L["dist.local_s"]
    m = {k: (L[k], "s") for k in (
        "circuit.parse_s", "circuit.plan_s", "dist.alloc_s", "dist.sweep_s",
        "dist.local_s", "dist.exchange_s", "dist.observables_s",
        "dist.digest_s", "perf.price_s", "trace.total_s")}
    m["trace.coverage"] = (L["trace.coverage"], "ratio")
    for k in ("sv.tiled_runs", "sv.passes_saved", "dist.gates_tiled",
              "dist.gates_local", "dist.gates_exchange", "cluster.messages",
              "cluster.delivered", "cluster.checksum_failures"):
        m[k] = (C[k], "count")
    m["cluster.bytes"] = (C["cluster.bytes"], "B")
    gbps = t["common.crc32_gbps"]
    m["common.crc32_gbps"] = (gbps, "GB/s")
    # Computed: CRC time both ends of every message would take at the
    # measured CRC rate, as a share of the measured exchange time.
    m["dist.exchange_crc_share"] = (
        2 * C["cluster.bytes"] / (gbps * 1e9) / ex if ex > 0 else 0.0,
        "ratio")
    # Computed: state bytes x statevector passes over kernel time.
    m["sv.kernel_gbps"] = (t["state_bytes"] * t["passes"] / kernels / 1e9
                           if kernels > 0 else 0.0, "GB/s")
    m["cluster.exchange_gbps"] = (C["cluster.bytes"] / ex / 1e9
                                  if ex > 0 else 0.0, "GB/s")
    m["perf.model_runtime_s"] = (t["perf.model_runtime_s"], "model_s")
    m["perf.model_energy_j"] = (t["perf.model_energy_j"], "model_J")
    return m


def model_guard(t, guard):
    """Paper-number guard: modelled runtime, energy and traffic match the
    recorded values exactly, and the functional engine's traffic equals the
    trace engine's."""
    C = t["counts"]
    return t["perf.model_runtime_s"] == guard["runtime_s"] and \
        t["perf.model_energy_j"] == guard["energy_j"] and \
        C["model.messages"] == guard["messages"] and \
        C["model.bytes"] == guard["bytes"] and \
        C["cluster.messages"] == C["model.messages"] and \
        C["cluster.bytes"] == C["model.bytes"]


def batch_trace(spec, job, qsv_args, ref, ops, workdir):
    # One untraced job beside the traced one: its wall time sits next to
    # trace.total_s, and the two digests must agree.
    out, code, untraced_s, _ = run_job(qsv_args)
    ok, untraced = job_ok(out, code, ref)
    ops.add(ok, wrong=code == 0 and not ok)

    chrome = os.path.join(workdir, "trace.json")
    t = trace_job(job, spec["ranks"], spec["threads"], spec["policy"], chrome)
    if t is None:
        raise BenchError("the traced run failed")
    ok = t["digest"] == ref["digest"] == untraced["digest"] and \
        t["z"] == ref["z"]
    ops.add(ok, wrong=not ok)
    ok = model_guard(t, ref["model"])
    ops.add(ok, wrong=not ok)
    m = layer_metrics(t)
    m["trace.untraced_job_s"] = (untraced_s, "s")
    host = host_record((1 << spec["qubits"]) * 16, untraced["backend"])
    return ops, m, dict(chrome_trace=chrome, host=host)


# ---------------------------------------------------------------- serve

POOL_CLASSES = 18  # (kind, width, ranks) classes of the distinct runs


def pool_spec(i, cfg):
    """`run` circuit i of the serve pool. The repeated set (i below
    cfg["repeated_runs"]) is one common class: random circuits on the middle
    width at 1 rank. Distinct circuits cycle through every kind, width of
    cfg["run_qubits"] and rank count 1, 2, 4."""
    if i < cfg["repeated_runs"]:
        kind, qubits, ranks = "random", cfg["run_qubits"][1], 1
    else:
        c = (i - cfg["repeated_runs"]) % POOL_CLASSES
        kind = ("random", "qft")[c % 2]
        qubits = cfg["run_qubits"][(c // 2) % 3]
        ranks = (1, 2, 4)[c // 6]
    param = cfg["random_gates"] if kind == "random" else qubits - 2
    return dict(kind=kind, qubits=qubits, param=param, seed=1000 + i,
                ranks=ranks)


def price_spec(i, cfg):
    """`price` circuit i: RCS and QFT circuits on cfg["price_qubits"]."""
    kind = ("rcs", "qft")[i % 2]
    qubits = cfg["price_qubits"][(i // 2) % len(cfg["price_qubits"])]
    param = 32 if kind == "rcs" else qubits - 2
    return dict(kind=kind, qubits=qubits, param=param, seed=5000 + i,
                ranks=(1, 2, 4)[(i // 6) % 3])


def serve_schedule(seed, seconds, cfg):
    """Seeded open-loop schedule: evenly spaced due times at the offered
    rate. Exact shares of the slots are `price` requests and repeated
    circuits; the seed shuffles them and picks the circuits."""
    rng = random.Random(seed)
    n = max(1, int(cfg["rate_rps"] * seconds))
    n_price = round(n * cfg["price_share"])
    ops = ["price"] * n_price + ["run"] * (n - n_price)
    rng.shuffle(ops)
    repeats = {}
    for op, count in (("price", n_price), ("run", n - n_price)):
        k = round(count * cfg["price_repeat_share" if op == "price"
                              else "repeat_share"])
        flags = [True] * k + [False] * (count - k)
        rng.shuffle(flags)
        repeats[op] = flags
    # Exact class mix: distinct runs come in whole blocks of POOL_CLASSES
    # consecutive pool entries (every kind, width and rank count once), and
    # repeated runs cycle through the repeated set.
    n_run = len(repeats["run"])
    n_repeat = sum(repeats["run"])
    blocks = list(range((cfg["pool"] - cfg["repeated_runs"]) // POOL_CLASSES))
    rng.shuffle(blocks)
    distinct = [cfg["repeated_runs"] + POOL_CLASSES * b + c
                for b in blocks for c in range(POOL_CLASSES)]
    distinct = distinct[:n_run - n_repeat]
    rng.shuffle(distinct)
    repeated = [k % cfg["repeated_runs"] for k in range(n_repeat)]
    rng.shuffle(repeated)
    next_price = cfg["repeated_prices"] + rng.randrange(1 << 20)
    sched = []
    for i, op in enumerate(ops):
        repeat = repeats[op].pop()
        if op == "run":
            if repeat or not distinct:
                repeat, idx = True, (repeated or [0]).pop()
            else:
                idx = distinct.pop()
        elif repeat:
            idx = rng.randrange(cfg["repeated_prices"])
        else:
            idx, next_price = next_price, next_price + 1
        sched.append(dict(i=i, due=i / cfg["rate_rps"], op=op, idx=idx,
                          repeat=repeat))
    return sched


class LineClient:
    """Blocking newline-delimited JSON client on a Unix socket."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = b""

    def call(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("qsv serve closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.sock.close()


class Server:
    """`qsv serve` at its defaults, on a Unix socket in the work directory
    (a relative path, so long checkout paths stay within the socket limit)."""

    def __init__(self, workdir):
        self.path = os.path.join(workdir, "s.sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen([QSV, "serve", "--socket", "s.sock"],
                                     cwd=workdir, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL,
                                     env=child_env())
        self.code = None
        self.rss_mib = 0.0

    def client(self):
        return LineClient(os.path.relpath(self.path))

    def wait_ready(self, timeout=60):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("qsv serve exited during start-up")
            try:
                c = self.client()
                try:
                    if c.call({"op": "ping", "id": "ping"}).get(
                            "status") == "pong":
                        return
                finally:
                    c.close()
            except (OSError, BenchError, ValueError):
                time.sleep(0.005)
        raise BenchError("qsv serve did not answer ping")

    def stop(self, timeout=60):
        """Drains with SIGTERM, reaps with wait4; returns the exit code."""
        if self.code is not None:
            return self.code
        if self.proc.returncode is not None:  # already reaped by poll()
            self.code = self.proc.returncode
            return self.code
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
            time.sleep(0.01)
        self.proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mib = ru.ru_maxrss / 1024.0
        return self.code


def drive(server, sched, request, cfg):
    """Open loop: request i is due at start + due_i and is sent then, or as
    soon as one of the `connections` sockets is free. Records due, sent and
    done times (seconds from the schedule's start) and the response."""
    results = [None] * len(sched)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker(conn):
        try:
            c = server.client()
        except OSError:
            return
        try:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= len(sched):
                        return
                    cursor[0] += 1
                s = sched[i]
                delay = start + s["due"] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter() - start
                try:
                    resp = c.call(request(s, f"r{i}"))
                except (OSError, BenchError, ValueError):
                    resp = None
                results[i] = dict(sent=sent, done=time.perf_counter() - start,
                                  resp=resp, conn=conn)
        finally:
            c.close()

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(cfg["connections"])]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r or dict(sent=s["due"], done=s["due"], resp=None, conn=-1)
            for s, r in zip(sched, results)]


def write_client_trace(path, sched, results):
    """Chrome trace of the client: one span per request, with queue and
    execute children derived from the response's queue_s."""
    def us(t):
        return round(t * 1e6, 3)

    events = []
    for s, r in zip(sched, results):
        base = dict(ph="X", pid=2, tid=r["conn"] + 1, args=dict(job=s["i"]))
        events.append(dict(base, name="loadgen.late", ts=us(s["due"]),
                           dur=us(max(0.0, r["sent"] - s["due"]))))
        events.append(dict(base, name=f"serve.{s['op']}", ts=us(r["sent"]),
                           dur=us(r["done"] - r["sent"])))
        resp = r["resp"] if isinstance(r["resp"], dict) else {}
        if "queue_s" in resp:
            q = min(resp["queue_s"], r["done"] - r["sent"])
            events.append(dict(base, name="serve.queue", ts=us(r["sent"]),
                               dur=us(q)))
            events.append(dict(base, name="serve.execute",
                               ts=us(r["sent"] + q),
                               dur=us(r["done"] - r["sent"] - q)))
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def serve_inputs(sched, cfg, workdir):
    """Circuit text and ranks for every (op, idx) the schedule and the
    warm-up name, generated from the builders."""
    keys = sorted({(s["op"], s["idx"]) for s in sched} |
                  {("run", i) for i in range(cfg["repeated_runs"])} |
                  {("price", i) for i in range(cfg["repeated_prices"])})
    specs = [(pool_spec if op == "run" else price_spec)(i, cfg)
             for op, i in keys]
    paths = gen([(s["kind"], s["qubits"], s["param"], s["seed"])
                 for s in specs], os.path.join(workdir, "circuits"))
    inputs = {}
    for key, spec, path in zip(keys, specs, paths):
        with open(path) as f:
            inputs[key] = dict(text=f.read(), ranks=spec["ranks"], path=path)
    return inputs


def kernel_backend(workdir):
    """The `kernel backend:` line of `qsv run` on a zero-gate circuit."""
    (empty,) = gen([("empty", 2, 0, 0)], workdir)
    return parse_run(run_job([QSV, "run", empty])[0])["backend"]


def serve_run(seed, seconds, workdir, ref, trace, cfg=SERVE):
    ops = Ops()
    sched = serve_schedule(seed, seconds, cfg)
    inputs = serve_inputs(sched, cfg, workdir)
    digests = ref["pool"]

    def request(s, rid):
        x = inputs[(s.get("of", s["op"]), s["idx"])]
        return {"op": s["op"], "id": rid, "circuit": x["text"],
                "ranks": x["ranks"]}

    def check(s, resp):
        """Records one response; True when it is ok and correct."""
        if not isinstance(resp, dict) or resp.get("status") != "ok":
            return ops.add(False)
        if s["op"] == "run":
            good = resp.get("digest") == digests[str(s["idx"])]
        else:
            text = inputs[(s.get("of", "price"), s["idx"])]["text"]
            good = resp.get("priced") is True and \
                resp.get("gates") == gate_count(text)
        return ops.add(good, wrong=not good)

    # Warm-up prices every repeated circuit: admission builds and caches its
    # plan (the cache key has no op), so later runs of it hit the cache.
    warm = [dict(op="price", idx=i, of="run")
            for i in range(cfg["repeated_runs"])] + \
        [dict(op="price", idx=i) for i in range(cfg["repeated_prices"])]
    setups = []

    def start(k):
        """One set-up: spawn until `ping` answers, then one warm-up request
        per repeated circuit. Returns the running server."""
        server = Server(workdir)
        try:
            server.wait_ready()
            c = server.client()
            for s in warm:
                check(s, c.call(request(s, f"warm{k}")))
            c.close()
        except BaseException:
            server.stop()
            raise
        setups.append(time.perf_counter() - server.t0)
        return server

    # Half the set-ups run before the measured phase (the last one serves
    # it) and half after, so their median spans the run.
    before_n = (cfg["setups"] + 1) // 2
    for k in range(before_n - 1):
        ops.add(start(k).stop() == 0)
    server = start(before_n - 1)
    try:
        c = server.client()
        before = c.call({"op": "stats", "id": "before"})
        results = drive(server, sched, request, cfg)
        after = c.call({"op": "stats", "id": "after"})
        c.close()
    finally:
        ops.add(server.stop() == 0)
    for k in range(before_n, cfg["setups"]):
        ops.add(start(k).stop() == 0)

    for s, r in zip(sched, results):
        r["ok"] = check(s, r["resp"])
    runs = [(s, r) for s, r in zip(sched, results) if s["op"] == "run"]
    prices = [(s, r) for s, r in zip(sched, results) if s["op"] == "price"]
    run_lat = [r["done"] - s["due"] for s, r in runs]
    price_lat = [r["done"] - s["due"] for s, r in prices]
    limit_s = cfg["latency_limit_ms"] / 1e3
    good = sum(1 for s, r in runs if r["ok"] and r["done"] - s["due"] <= limit_s)
    late = [max(0.0, r["sent"] - s["due"]) for s, r in zip(sched, results)]
    behind = sum(1 for x in late if x > 0.01)
    info = dict(requests=len(sched), runs=len(runs), prices=len(prices),
                run_ms={q: quantile(run_lat, q) * 1e3
                        for q in (0.1, 0.5, 0.9, 0.99, 1.0)},
                run_mean_ms=statistics.fmean(run_lat) * 1e3,
                price_ms={q: quantile(price_lat, q) * 1e3
                          for q in (0.1, 0.5, 0.9, 1.0)},
                late_max_ms=max(late) * 1e3, behind=behind,
                setup_walls=setups,
                host=host_record([(1 << q) * 16 for q in cfg["run_qubits"]],
                                 kernel_backend(workdir)))
    if behind:
        print(f"loadgen: behind schedule on {behind} of {len(sched)} "
              f"requests (up to {info['late_max_ms']:.1f} ms late)")

    if not trace:
        metrics = {
            "goodput_rps": (good / max(r["done"] for r in results), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (server.rss_mib, "MiB"),
            "success_rate": (1 - ops.failed / ops.attempted, "ratio"),
        }
        return ops, metrics, info

    chrome = os.path.join(workdir, "trace_client.json")
    write_client_trace(chrome, sched, results)

    def resp_of(r):
        return r["resp"] if isinstance(r["resp"], dict) else {}

    admission = {"hit": [], "miss": []}
    for s, r in prices:
        if resp_of(r).get("cache") in admission:
            admission[resp_of(r)["cache"]].append(r["done"] - r["sent"])
    queued = [(r, resp_of(r)["queue_s"]) for s, r in runs
              if "queue_s" in resp_of(r)]
    queue = [q for _, q in queued]
    execute = [r["done"] - r["sent"] - q for r, q in queued]
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    p = tail_percentile(len(run_lat))
    m = {
        "serve.admission_hit_ms": (quantile(admission["hit"], 0.5) * 1e3,
                                   "ms"),
        "serve.admission_miss_ms": (quantile(admission["miss"], 0.5) * 1e3,
                                    "ms"),
        "serve.queue_wait_p50_ms": (quantile(queue, 0.5) * 1e3, "ms"),
        "serve.queue_wait_tail_ms": (quantile(queue, p) * 1e3, "ms"),
        "serve.execute_ms": (quantile(execute, 0.5) * 1e3, "ms"),
        "serve.run_p50_ms": (quantile(run_lat, 0.5) * 1e3, "ms"),
        "serve.run_tail_ms": (quantile(run_lat, p) * 1e3, "ms"),
        "serve.plan_cache_hit_ratio": (hits / (hits + misses)
                                       if hits + misses else 0.0, "ratio"),
        "serve.repeat_share": (sum(s["repeat"] for s in sched) / len(sched),
                               "ratio"),
        "loadgen.late_ms": (max(late) * 1e3, "ms"),
        "loadgen.behind": (behind, "count"),
    }
    for name, key in (("serve.shed", "shed"), ("serve.rejected", "rejected"),
                      ("serve.deadline_expired", "deadline"),
                      ("serve.failed", "failed")):
        m[name] = (after[key] - before[key], "count")
    m["serve.peak_nodes_busy"] = (after["peak_nodes_busy"], "count")

    # The executor's layers, replayed in-process on the repeated circuits
    # (what every cache hit executes): alloc, plan, runs and digest.
    totals = None
    for i in range(cfg["repeated_runs"]):
        x = inputs[("run", i)]
        t = trace_job(x["path"], x["ranks"], 0, "blocking",
                      os.path.join(workdir, f"trace_run{i}.json"),
                      serve_sequence=True)
        if t is None:
            raise BenchError("the traced replay failed")
        ops.add(t["digest"] == digests[str(i)],
                wrong=t["digest"] != digests[str(i)])
        lm = layer_metrics(t)
        if totals is None:
            totals = lm
        else:
            for k, (v, u) in lm.items():
                totals[k] = (totals[k][0] + v, u)
    n = cfg["repeated_runs"]
    for k in ("common.crc32_gbps", "dist.exchange_crc_share",
              "sv.kernel_gbps", "cluster.exchange_gbps", "trace.coverage"):
        totals[k] = (totals[k][0] / n, totals[k][1])
    m.update({k: v for k, v in totals.items() if k not in m})
    info.update(chrome_trace=chrome, tail_percentile=p, run_samples=len(run_lat),
                cache_hits=hits, cache_misses=misses)
    return ops, m, info


# ---------------------------------------------------------------- references

def batch_reference(spec, variant, workdir):
    """Reference results of one batch circuit. The digest and <Z> lines come
    from `qsv run` with the workload's flags and must equal those of the
    independent single-rank, gate-by-gate path (--ranks 1 --no-sweep)."""
    job, empty = batch_inputs(spec, variant, workdir)
    refs = []
    for args in ([job] + spec["flags"], [job, "--ranks", "1", "--no-sweep"]):
        out, code, _, _ = run_job([QSV, "run"] + args)
        r = parse_run(out)
        if code != 0 or r["digest"] is None:
            raise BenchError(f"qsv run {' '.join(args)} failed")
        refs.append(r)
    if (refs[0]["digest"], refs[0]["z"]) != (refs[1]["digest"], refs[1]["z"]):
        raise BenchError(f"{job}: sharded and single-rank results differ")
    t = trace_job(job, spec["ranks"], spec["threads"], spec["policy"],
                  os.path.join(workdir, "ref_trace.json"))
    if t is None or t["digest"] != refs[0]["digest"]:
        raise BenchError(f"{job}: traced digest differs from qsv run")
    out, code, _, _ = run_job([QSV, "price", job, "--nodes",
                               str(spec["ranks"]), "--policy", spec["policy"]])
    price = parse_price(out)
    if code != 0 or None in price.values():
        raise BenchError(f"qsv price {job} failed")
    out, code, _, _ = run_job([QSV, "run", empty] + spec["flags"])
    empty_digest = parse_run(out)["digest"]
    return dict(digest=refs[0]["digest"], z=refs[0]["z"], price=price,
                model=dict(runtime_s=t["perf.model_runtime_s"],
                           energy_j=t["perf.model_energy_j"],
                           messages=t["counts"]["model.messages"],
                           bytes=t["counts"]["model.bytes"])), empty_digest


def pool_reference(cfg, workdir, count):
    """`qsv run` digests of the first `count` serve pool circuits at their
    ranks, each equal to the single-rank gate-by-gate digest."""
    specs = [pool_spec(i, cfg) for i in range(count)]
    paths = gen([(s["kind"], s["qubits"], s["param"], s["seed"])
                 for s in specs], workdir)
    digests = {}
    for i, (s, path) in enumerate(zip(specs, paths)):
        d = [parse_run(run_job([QSV, "run", path] + extra)[0])["digest"]
             for extra in (["--ranks", str(s["ranks"])],
                           ["--ranks", "1", "--no-sweep"])]
        if d[0] is None or d[0] != d[1]:
            raise BenchError(f"{path}: serve pool digest mismatch {d}")
        digests[str(i)] = d[0]
    return digests


def record():
    workdir = os.path.join(BUILD, "work", "record")
    refs = {"about": "Reference results for perfbench/run.py, written by "
                     "`python3 perfbench/run.py --record`. Batch variants "
                     "are circuit seeds (run seed % " f"{VARIANTS}); the serve "
                     "pool holds `qsv run` digests of the serve circuits."}
    for w, spec in BATCH.items():
        variants, empty = {}, None
        for v in range(VARIANTS):
            variants[str(v)], empty = batch_reference(
                spec, v, os.path.join(workdir, w))
            print(f"recorded {w} variant {v}: {variants[str(v)]['digest']}",
                  flush=True)
        refs[w] = dict(empty_digest=empty, variants=variants)
    refs["serve_mix"] = dict(pool=pool_reference(
        SERVE, os.path.join(workdir, "serve"), SERVE["pool"]))
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")
    return 0


# ---------------------------------------------------------------- self-test

SMOKE_BATCH = {w: dict(spec, qubits=10, param=min(spec["param"], 8))
               for w, spec in BATCH.items()}
SMOKE_SERVE = dict(SERVE, rate_rps=20.0, pool=4 + POOL_CLASSES, run_qubits=(6, 7, 8),
                   price_qubits=(8, 9, 10), random_gates=40)


def smoke():
    """Every workload path on tiny registers, with references computed on
    the spot. Each path must pass, and fail once its reference digest is
    tampered with, so the correctness gate cannot pass silently."""
    workdir = os.path.join(BUILD, "work", f"smoke-{os.getpid()}")
    expected = {name for name, _ in PER_LAYER}
    problems = []

    def expect(label, ops, metrics, tampered, trace):
        if tampered:
            good = ops.wrong >= 1 and ops.failed >= 1
        else:
            good = ops.wrong == 0 and ops.failed == 0 and ops.attempted > 0
        if trace and not tampered:
            names = set(select_metrics(metrics, True))
            good = good and names == expected and \
                metrics["trace.coverage"][0] >= 0.9
        print(f"smoke {label}: attempted {ops.attempted}, failed "
              f"{ops.failed}, wrong {ops.wrong} -> "
              f"{'ok' if good else 'FAIL'}", flush=True)
        if not good:
            problems.append(label)

    for w, spec in SMOKE_BATCH.items():
        ref, empty = batch_reference(spec, 3, os.path.join(workdir, w))
        ref["empty_digest"] = empty
        for trace in (0, 1):
            ops, m, _ = batch_run(spec, 3, 0.5, os.path.join(workdir, w),
                                  ref, trace)
            expect(f"{w} trace={trace}", ops, m, False, trace)
        bad = dict(ref, digest=f"{int(ref['digest'], 16) ^ 1:08x}")
        ops, m, _ = batch_run(spec, 3, 0.5, os.path.join(workdir, w), bad, 0)
        expect(f"{w} tampered", ops, m, True, 0)

    pool = pool_reference(SMOKE_SERVE, os.path.join(workdir, "pool"),
                          SMOKE_SERVE["pool"])
    for trace in (0, 1):
        ops, m, _ = serve_run(5, 1.5, os.path.join(workdir, "serve"),
                              dict(pool=pool), trace, SMOKE_SERVE)
        expect(f"serve_mix trace={trace}", ops, m, False, trace)
    bad = dict(pool, **{"0": f"{int(pool['0'], 16) ^ 1:08x}"})
    ops, m, _ = serve_run(5, 1.5, os.path.join(workdir, "serve"),
                          dict(pool=bad), 0, SMOKE_SERVE)
    expect("serve_mix tampered", ops, m, True, 0)
    print("smoke: " + ("FAILED " + ", ".join(problems) if problems else "ok"))
    return 1 if problems else 0


# ---------------------------------------------------------------- command line

def select_metrics(m, trace):
    """End-to-end metrics as measured; with tracing, every per-layer name,
    reading 0 where the workload's traced run does not exercise the layer."""
    if not trace:
        return m
    return {name: m.get(name, (0, unit)) for name, unit in PER_LAYER}


def run_workload(w, seed, seconds, trace, workdir):
    with open(REFERENCES) as f:
        refs = json.load(f)
    if w == "serve_mix":
        return serve_run(seed, seconds, workdir, refs[w], trace)
    variant = seed % VARIANTS
    ref = dict(refs[w]["variants"][str(variant)],
               empty_digest=refs[w]["empty_digest"])
    ops, m, info = batch_run(BATCH[w], variant, seconds, workdir, ref, trace)
    info["variant"] = variant
    return ops, m, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    if not (a.smoke or a.record or a.workload):
        ap.error("one of --workload, --smoke or --record is required")
    try:
        build()
        if a.smoke:
            return smoke()
        if a.record:
            return record()
        workdir = os.path.join(BUILD, "work", f"{a.workload}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        ops, metrics, info = run_workload(a.workload, a.seed, a.seconds,
                                          bool(a.trace), workdir)
        metrics = select_metrics(metrics, bool(a.trace))
        info.update(workload=a.workload, seed=a.seed, seconds=a.seconds,
                    trace=a.trace, attempted=ops.attempted, failed=ops.failed,
                    wrong=ops.wrong, metrics=metrics)
        results = os.path.join(BUILD, "results")
        os.makedirs(results, exist_ok=True)
        with open(os.path.join(results, f"{a.workload}-seed{a.seed}-trace"
                               f"{a.trace}-{os.getpid()}.json"), "w") as f:
            json.dump(info, f, indent=1)
        print("host: " + json.dumps(info["host"]))
        print(json.dumps({
            "correct": ops.wrong == 0,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
