#!/usr/bin/env python3
"""End-to-end benchmark of paragraph-sweep and paragraph-serve.

Builds the two CLIs from the checkout this file sits in, runs one workload
as a closed loop for --seconds, checks every op's output against reference
digests computed by an independent path, and prints one JSON result as the
last line of stdout:

    python3 perfbench/run.py --workload sweep-sim --seed 1 --seconds 12 --trace 0

--workload all runs the four workloads in turn, each ending with its line.

--trace 0 times the CLI ops and reports the end-to-end metrics; --trace 1
repeats a few ops through perfbench/probe (which calls each layer's entry
points inside a span) and reports the per-layer metrics instead.

The shared host's speed drifts by tens of percent within minutes, most of
all for processes that touch fresh memory. So on the workloads whose ops
follow that drift, the untraced run also times a fixed synthetic job,
perfbench/calib, between ops, and reports each timing at reference host
speed: scaled by REFERENCE_S over that job's median wall in the run. The
raw figures are printed beside the scaled ones. Metric
definitions, and which end-to-end metric each layer metric should move, are
in perfbench/metrics.json. Build products, trace files and cached reference
digests live under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
"""

import argparse
import hashlib
import json
import os
import random
import selectors
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOBS = 4

# The Figure 8 x Table 4 grid every sweep workload runs per op.
GRID = ["--windows=0,16,64,256", "--rename=none,data"]
GRID_CELLS = 8
# The daemon's warm 32-cell grid (windows x rename x syscalls).
WARM_AXES = {"windows": [0, 16, 64, 256],
             "rename": ["none", "regs", "stack", "data"],
             "syscalls": ["stall", "ignore"]}
WARM_FLAGS = [f"--{axis}=" + ",".join(map(str, values))
              for axis, values in WARM_AXES.items()]
WARM_CELLS = 32
MISS_CELLS = 4              # never-seen cells per connection per miss round
MISS_WINDOWS = [w for w in range(100, 1000) if w not in WARM_AXES["windows"]]
LONG_CONFIG = ["--windows=64", "--rename=data"]
LONG_SHARDS = 4

# Median wall of perfbench-calib (1M records, 4 threads) on the host the
# benchmark was defined on, a 4-vCPU Xeon VM, while it was quiet; scaled
# timings read as they would there.
REFERENCE_S = 0.200
# Share of a timed phase spent running perfbench-calib between ops.
CALIB_SHARE = 0.3
# Workloads whose timings are scaled to reference host speed. Their ops
# start fresh processes or render fresh buffers, and slow with the host as
# perfbench-calib does. A long-cell op's memory is mostly the page-cached
# trace file: in a period where perfbench-calib slowed by 28% its ops moved
# 7%, so scaling it would add the reference's drift, not remove the host's.
HOST_SCALED = {"sweep-sim", "sweep-file", "serve-mix"}

ALL_ANALOGS = ["cc1", "doduc", "eqntott", "espresso", "fpppp", "matrix300",
               "nasker", "spice2g6", "tomcatv", "xlisp"]
# 2.34M-2.71M records each at full scale, so file ops are of like size.
LIKE_SIZED = ["cc1", "doduc", "fpppp", "spice2g6"]

SCALES = {
    "full": {"small": False, "cap": 1_000_000, "sim": ALL_ANALOGS,
             "files": LIKE_SIZED, "serve": LIKE_SIZED},
    # A few seconds per workload; used by perfbench/test_run.py.
    "toy": {"small": True, "cap": 20_000, "sim": ["xlisp", "cc1"],
            "files": ["xlisp", "cc1"], "serve": ["xlisp", "cc1"]},
}

WORKLOADS = ["sweep-sim", "sweep-file", "long-cell", "serve-mix"]
METRICS = json.loads((HERE / "metrics.json").read_text())


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def checked_run(argv, logfile, what):
    with open(logfile, "ab") as out:
        rc = subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        tail = Path(logfile).read_text(errors="replace").splitlines()[-20:]
        raise BenchError(f"{what} failed (exit {rc}):\n" + "\n".join(tail))


def build(bdir, with_probe):
    """Configure once, then bring the CLIs, the calibration job (and the
    probe) up to date."""
    if not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no CMakeLists.txt at {ROOT}: not a source checkout")
    bdir.mkdir(parents=True, exist_ok=True)
    blog = bdir / "build.log"
    calib = bdir / "calib"
    if not (calib / "CMakeCache.txt").is_file():
        checked_run(["cmake", "-S", str(HERE / "calib"), "-B", str(calib),
                     "-DCMAKE_BUILD_TYPE=Release"], blog, "calib configure")
    checked_run(["cmake", "--build", str(calib)], blog, "calib build")
    pdir = bdir / "paragraph"
    if not (pdir / "CMakeCache.txt").is_file():
        checked_run(["cmake", "-S", str(ROOT), "-B", str(pdir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], blog, "configure")
    checked_run(["cmake", "--build", str(pdir), "-j", str(JOBS), "--target",
                 "paragraph", "paragraph_sweep", "paragraph_serve"],
                blog, "build")
    if with_probe:
        probe = bdir / "probe"
        if not (probe / "CMakeCache.txt").is_file():
            checked_run(["cmake", "-S", str(HERE / "probe"), "-B", str(probe),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                         f"-DPARAGRAPH_ROOT={ROOT}",
                         f"-DPARAGRAPH_BUILD={pdir}"], blog, "probe configure")
        checked_run(["cmake", "--build", str(probe), "-j", str(JOBS)],
                    blog, "probe build")


def machine_block(bdir):
    cache = {}
    cache_file = bdir / "paragraph" / "CMakeCache.txt"
    for line in cache_file.read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    commit = "unknown (checkout is not a git repository)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "compiler": version[0] if version else compiler,
            "commit": commit}


# ---------------------------------------------------------------- ops

def run_cli(argv, errfile):
    """Run one CLI op; return (wall seconds, max RSS MB, exit code)."""
    with open(errfile, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def fsync_path(path):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def cell_key(cell):
    """Input analog plus the analysis config, minus its display label."""
    config = {k: v for k, v in cell["config"].items() if k != "label"}
    return Path(cell["input"]).stem + "|" + json.dumps(config, sort_keys=True)


def cell_digest(cell):
    """Digest of a cell's analysis fields: no timing, no grid position."""
    fields = {k: v for k, v in cell.items()
              if k not in ("input", "input_index", "config_index", "timing")}
    fields["config"] = {k: v for k, v in cell["config"].items()
                        if k != "label"}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_doc(doc, refs, cells):
    """True when a sweep document has @p cells ok cells matching @p refs."""
    got = doc.get("cells", [])
    if doc.get("cells_failed") != 0 or len(got) != cells:
        return False
    return all(c.get("status") == "ok" and
               refs.get(cell_key(c)) == cell_digest(c) for c in got)


def instructions(doc):
    return sum(c.get("instructions", 0) for c in doc.get("cells", []))


def timed_op(ctx, argv, out, refs, cells):
    """Run one CLI op writing its document to @p out; check the document
    after the clock stopped. @return (wall, max RSS MB, ok, instructions)."""
    out.unlink(missing_ok=True)
    wall, rss, rc = run_cli(argv, ctx.err)
    try:
        doc = json.loads(out.read_text()) if rc == 0 else {}
    except (OSError, ValueError):
        doc = {}
    return wall, rss, bool(doc) and check_doc(doc, refs, cells), \
        instructions(doc)


class Calibration:
    """Host-speed reference: perfbench-calib runs, timed between ops."""

    def __init__(self, bdir):
        self.argv = [str(bdir / "calib" / "perfbench-calib"), "1000000",
                     str(JOBS)]
        self.walls = []
        self.output = None

    def catch_up(self, started):
        """Run the job until it has taken CALIB_SHARE of the time since
        @p started, and at least once."""
        while not self.walls or sum(self.walls) < \
                CALIB_SHARE * (time.perf_counter() - started):
            start = time.perf_counter()
            proc = subprocess.run(self.argv, capture_output=True)
            self.walls.append(time.perf_counter() - start)
            if proc.returncode != 0 or not proc.stdout or \
                    self.output not in (None, proc.stdout):
                raise BenchError(f"perfbench-calib misbehaved (exit "
                                 f"{proc.returncode}): {proc.stdout!r}")
            self.output = proc.stdout

    def scale(self):
        """Factor that takes a time measured in this run to reference
        host speed (a rate is divided by it)."""
        return REFERENCE_S / statistics.median(self.walls)


class Context:
    def __init__(self, args):
        self.args = args
        self.scale = SCALES[args.scale]
        self.bdir = build_dir()
        self.bin = self.bdir / "paragraph" / "tools"
        self.work = self.bdir / "work"
        self.refs_dir = self.bdir / "refs"
        self.sweep = str(self.bin / "paragraph-sweep")
        self.small = ["--small"] if self.scale["small"] else []
        self.err = self.work / "stderr.txt"
        self.refs_warm = None   # serve-mix warm-grid digests
        self.calib = None       # the current workload's Calibration

    def tool(self, name):
        return str(self.bin / name)

    def refs(self, name, argv):
        """Cell digests of @p argv's document, computed once per checkout.

        @p argv is an independent path to the same cells (no fusion, no
        threads, no sharding, or no daemon). The cache key is the argv and
        the scale, which decides what the trace files named in argv hold.
        """
        material = json.dumps([self.args.scale] + argv)
        key = hashlib.sha256(material.encode()).hexdigest()[:16]
        path = self.refs_dir / f"{name}-{key}.json"
        if path.is_file():
            return json.loads(path.read_text())["digests"]
        out = self.work / "refs-out.json"
        wall, _, rc = run_cli(argv + [f"--out={out}"], self.err)
        if rc != 0:
            raise BenchError(f"reference run failed (exit {rc}): {argv}")
        doc = json.loads(out.read_text())
        if doc.get("cells_failed") != 0:
            raise BenchError(f"reference run has failed cells: {argv}")
        digests = {cell_key(c): cell_digest(c) for c in doc["cells"]}
        self.refs_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"scale": self.args.scale, "argv": argv,
                                    "digests": digests}, indent=0))
        log(f"refs: computed {name} ({len(digests)} cells) in {wall:.1f} s")
        return digests

    def write_trace(self, analog, path):
        """Capture @p analog to @p path (format by suffix) and flush it."""
        # --dot=1 stops paragraph right after the capture is written.
        argv = [self.tool("paragraph"), analog, f"--save-trace={path}",
                "--dot=1"] + self.small
        _, _, rc = run_cli(argv, self.err)
        if rc != 0:
            raise BenchError(f"trace write failed (exit {rc}): {argv}")
        fsync_path(path)


class Plan:
    """One round of a CLI workload: its ops in their fixed order, and the
    probe command that repeats them in a traced run."""

    def __init__(self, ops, inputs, probe, out, refs, cells):
        self.ops = ops          # argv per op
        self.inputs = inputs    # the input each op names, for the probe
        self.probe = probe      # probe mode and options, without inputs
        self.out = out          # where every op writes its document
        self.refs = refs
        self.cells = cells      # cells per document


class Ops:
    """Timed ops of one workload run, split into named classes."""

    def __init__(self):
        self.walls = {}
        self.ok = []
        self.rates = []         # Minstr/s of each op that computed cells
        self.peak_rss_mb = 0.0
        self.report = {}        # extra lines for the printed summary
        self.counts_ok = True   # daemon counters agree with the script

    @property
    def attempted(self):
        return len(self.ok)

    @property
    def failed(self):
        return self.ok.count(False)

    def add(self, cls, wall, ok, computed_instructions=0, rss_mb=0.0):
        """Record one op; return its index for a later verdict."""
        self.ok.append(bool(ok))
        self.walls.setdefault(cls, []).append(wall)
        if ok and computed_instructions:
            self.rates.append(computed_instructions / wall / 1e6)
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        return len(self.ok) - 1

    def p50_ms(self, cls):
        return statistics.median(self.walls[cls]) * 1e3

    def tail(self, cls):
        """(ms, percentile, n) at the highest rank with >= 10 ops beyond.

        None when that rank is not above the median."""
        walls = sorted(self.walls.get(cls, []))
        n = len(walls)
        k = n - 11
        if k + 1 <= n / 2:
            return None, None, n
        return walls[k] * 1e3, 100.0 * (k + 1) / n, n

    def minstr_s(self):
        return statistics.median(self.rates) if self.rates else 0.0


def until(seconds):
    deadline = time.perf_counter() + seconds
    return lambda: time.perf_counter() >= deadline


# ---------------------------------------------------------------- workloads

def sweep_sim(ctx):
    s = ctx.scale
    base = [ctx.sweep] + GRID + [f"--max={s['cap']}", "--quiet"] + ctx.small
    out = ctx.work / "op.json"

    def op(analog):
        return base + [f"--jobs={JOBS}", f"--inputs={analog}", f"--out={out}"]

    # Set-up: one warm-up pass over every analog (page cache, allocator,
    # CPU frequency), the same ops the timed rounds repeat.
    start = time.perf_counter()
    for analog in s["sim"]:
        if run_cli(op(analog), ctx.err)[2] != 0:
            raise BenchError(f"warm-up op failed: {analog}")
    setup = time.perf_counter() - start
    refs = ctx.refs("sweep-sim", base + ["--jobs=1", "--group=1",
                                         "--no-timing",
                                         "--inputs=" + ",".join(s["sim"])])
    probe = ["sim"] + GRID + [f"--max={s['cap']}", f"--jobs={JOBS}"] + \
        ctx.small
    return setup, Plan([op(a) for a in s["sim"]], s["sim"], probe, out, refs,
                       GRID_CELLS)


def sweep_file(ctx):
    files = [ctx.work / f"{a}.{fmt}" for a in ctx.scale["files"]
             for fmt in ("ptrc", "ptrz")]
    start = time.perf_counter()
    for path in files:
        ctx.write_trace(path.stem, path)
    setup = time.perf_counter() - start
    refs = ctx.refs("sweep-file", [ctx.sweep] + GRID + [
        "--jobs=1", "--group=1", "--no-timing", "--quiet"] +
        [str(p) for p in files if p.suffix == ".ptrc"])
    out = ctx.work / "op.json"

    def op(path):
        return [ctx.sweep, str(path), "--stream"] + GRID + [
            f"--jobs={JOBS}", "--quiet", f"--out={out}"]

    paths = [str(p) for p in files]  # alternating .ptrc / .ptrz
    return setup, Plan([op(p) for p in paths], paths,
                       ["file"] + GRID + [f"--jobs={JOBS}"] + ctx.small, out,
                       refs, GRID_CELLS)


def long_cell(ctx):
    path = ctx.work / "matrix300.ptrc"
    # Set-up is one full-length capture; it is done twice and the median
    # kept, so one slow write does not decide setup_s.
    writes = []
    for _ in range(2):
        path.unlink(missing_ok=True)
        start = time.perf_counter()
        ctx.write_trace("matrix300", path)
        writes.append(time.perf_counter() - start)
    setup = statistics.median(writes)
    refs = ctx.refs("long-cell", [ctx.sweep, str(path), "--stream",
                                  "--shard=1", f"--jobs={JOBS}",
                                  "--no-timing", "--quiet"] + LONG_CONFIG)
    out = ctx.work / "op.json"
    argv = [ctx.sweep, str(path), "--stream", f"--shard={LONG_SHARDS}",
            f"--jobs={JOBS}", "--quiet", f"--out={out}"] + LONG_CONFIG
    return setup, Plan([argv], [str(path)], ["long"] + LONG_CONFIG + [
        f"--jobs={JOBS}", f"--shard={LONG_SHARDS}"] + ctx.small, out, refs, 1)


def cli_rounds(ctx, plan):
    """Closed loop over whole rounds of @p plan until --seconds is up."""
    ops = Ops()
    started = time.perf_counter()
    done = until(ctx.args.seconds)
    while not done():
        for argv in plan.ops:
            wall, rss, ok, n = timed_op(ctx, argv, plan.out, plan.refs,
                                        plan.cells)
            ops.add("op", wall, ok, n, rss)
            if ctx.args.workload in HOST_SCALED:
                ctx.calib.catch_up(started)
    return ops


# ---------------------------------------------------------------- serve-mix

def sweep_request(ctx, analog, windows, rename, syscalls):
    req = {"schema": "paragraph-serve-v1", "op": "sweep", "inputs": [analog],
           "windows": windows, "rename": rename, "syscalls": syscalls,
           "max": ctx.scale["cap"]}
    if ctx.scale["small"]:
        req["small"] = True
    return req


def warm_request(ctx, analog):
    return sweep_request(ctx, analog, WARM_AXES["windows"],
                         WARM_AXES["rename"], WARM_AXES["syscalls"])


class Daemon:
    """A paragraph-serve process with a fresh store, stopped on exit."""

    def __init__(self, ctx):
        # Relative to the checkout root: AF_UNIX paths are length-limited.
        self.sock = os.path.relpath(ctx.work / "serve.sock", ROOT)
        store = ctx.work / "store.jsonl"
        # --group=MISS_CELLS: a miss request's cells form one fused group
        # whichever connection's request lands first. With the default of 8
        # the grouping depends on arrival order and miss latency is bimodal.
        argv = [ctx.tool("paragraph-serve"), f"--socket={self.sock}",
                f"--store={store}", f"--jobs={JOBS}",
                f"--group={MISS_CELLS}", "--quiet"] + ctx.small
        self.errf = open(ctx.work / "daemon.err", "wb")
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=self.errf,
                                     stderr=subprocess.STDOUT)

    def connect(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while True:
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                conn.connect(self.sock)
                return Conn(conn)
            except OSError:
                conn.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("paragraph-serve did not come up")
                time.sleep(0.02)

    def vm_hwm_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for paragraph-serve")

    def stop(self):
        if self.proc.poll() is None:
            try:
                conn = self.connect(timeout=5.0)
                conn.request({"schema": "paragraph-serve-v1",
                              "op": "shutdown"})
                conn.close()
                self.proc.wait(timeout=30)
            except (BenchError, OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.errf.close()


class Conn:
    """One daemon connection. Responses land in a buffer allocated and
    touched once, so the timed reads allocate no fresh memory, which is
    what the shared host slows most."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = bytearray(16 << 20)
        self.n = 0

    def send(self, req):
        self.n = 0
        self.sock.sendall(json.dumps(req).encode() + b"\n")

    def feed(self):
        """Read what is there; return True once the response line is in."""
        if self.n == len(self.buf):
            self.buf.extend(bytes(len(self.buf)))
        with memoryview(self.buf) as view, view[self.n:] as tail:
            got = self.sock.recv_into(tail)
        if not got:
            raise BenchError("paragraph-serve closed a connection")
        self.n += got
        return self.buf[self.n - 1] == ord("\n")

    def line(self):
        return bytes(self.buf[:self.n])

    def request(self, req):
        self.send(req)
        while not self.feed():
            pass
        return json.loads(self.line())

    def close(self):
        self.sock.close()


def lockstep(conns, reqs):
    """Send one request per connection; time each until its final newline.

    @return [(wall seconds, raw response line)] in connection order.
    """
    sel = selectors.DefaultSelector()
    starts, ends = [], [None] * len(conns)
    for i, (conn, req) in enumerate(zip(conns, reqs)):
        starts.append(time.perf_counter())
        conn.send(req)
        sel.register(conn.sock, selectors.EVENT_READ, i)
    while sel.get_map():
        for key, _ in sel.select():
            i = key.data
            if conns[i].feed():
                ends[i] = time.perf_counter()
                sel.unregister(key.fileobj)
    sel.close()
    return [(ends[i] - starts[i], conns[i].line())
            for i in range(len(conns))]


def serve_script(rng, analogs):
    """Endless seeded round script. Each block of five rounds holds four hit
    rounds (each connection re-requests a warm grid) and one miss round
    (each connection asks for MISS_CELLS never-seen cells of one input) in
    a shuffled order. A block's eight hit requests name every input equally
    often and successive miss rounds cycle through the inputs, so the seed
    changes the order and the miss windows, never the mix: hits on
    different inputs differ in latency by up to 30%."""
    hit_requests = 8
    assert hit_requests % len(analogs) == 0
    unused = {a: list(MISS_WINDOWS) for a in analogs}
    miss_inputs = []
    while True:
        hits = analogs * (hit_requests // len(analogs))
        rng.shuffle(hits)
        if not miss_inputs:
            miss_inputs = rng.sample(analogs, len(analogs))
        block = ["hit"] * 4 + ["miss"]
        rng.shuffle(block)
        for kind in block:
            if kind == "hit":
                yield kind, [(hits.pop(), None) for _ in range(2)]
            else:
                analog = miss_inputs.pop()
                pool = unused[analog]
                picks = []
                for _ in range(2):
                    wins = sorted(pool.pop(rng.randrange(len(pool)))
                                  for _ in range(MISS_CELLS))
                    picks.append((analog, wins))
                yield kind, picks


def serve_mix(ctx, rounds=None):
    """Set up the daemon and run the script for --seconds, or for @p rounds
    rounds (a multiple of five) when given."""
    s = ctx.scale
    ctx.refs_warm = ctx.refs("serve-warm", [
        ctx.sweep, "--no-timing", "--quiet", f"--max={s['cap']}",
        "--inputs=" + ",".join(s["serve"])] + WARM_FLAGS + ctx.small)
    start = time.perf_counter()
    daemon = Daemon(ctx)
    try:
        first = daemon.connect()
        # First touch of each input: trace CRC, capture, one warm grid.
        for analog in s["serve"]:
            resp = first.request(warm_request(ctx, analog))
            if resp.get("status") != "ok" or \
                    resp.get("cells_computed") != WARM_CELLS:
                raise BenchError(f"warm-up request failed: {resp.get('error')}")
        setup = time.perf_counter() - start
        return setup, serve_loop(ctx, daemon, first, rounds)
    finally:
        daemon.stop()


def serve_loop(ctx, daemon, stats_conn, rounds_limit):
    s = ctx.scale
    conns = [daemon.connect() for _ in range(2)]
    script = serve_script(random.Random(ctx.args.seed), s["serve"])
    ops = Ops()
    verified = {}         # analog -> sha256 of its checked hit response
    miss_cells = []       # (op index, cell) to check after the loop
    hits = misses = busy = 0
    started = time.perf_counter()
    done = until(ctx.args.seconds)
    rounds = 0
    # Whole five-round blocks only, so the hit/miss mix is exact.
    while rounds % 5 or not (rounds >= rounds_limit if rounds_limit
                             else done()):
        kind, picks = next(script)
        rounds += 1
        reqs = [warm_request(ctx, a) if wins is None else
                sweep_request(ctx, a, wins, ["data"], ["stall"])
                for a, wins in picks]
        for (wall, line), (analog, _) in zip(lockstep(conns, reqs), picks):
            # Checked after the clock stopped at the final newline.
            if kind == "hit":
                hits += 1
                digest = hashlib.sha256(line).hexdigest()
                ok = verified.get(analog) == digest
                if not ok:
                    resp = json.loads(line)
                    busy += resp.get("status") == "busy"
                    ok = (resp.get("status") == "ok" and
                          resp.get("cells_cached") == WARM_CELLS and
                          resp.get("cells_computed") == 0 and
                          check_doc(json.loads(resp.get("document", "{}")),
                                    ctx.refs_warm, WARM_CELLS))
                    if ok:
                        verified[analog] = digest
                ops.add("hit", wall, ok)
            else:
                misses += 1
                resp = json.loads(line)
                busy += resp.get("status") == "busy"
                ok = (resp.get("status") == "ok" and
                      resp.get("cells_cached") == 0 and
                      resp.get("cells_computed") == MISS_CELLS)
                doc = json.loads(resp.get("document", "{}")) if ok else {}
                ok = ok and doc.get("cells_failed") == 0 and \
                    len(doc.get("cells", [])) == MISS_CELLS
                idx = ops.add("miss", wall, ok, instructions(doc))
                miss_cells += [(idx, cell) for cell in doc.get("cells", [])]
        if rounds % 5 == 0 and not rounds_limit:
            ctx.calib.catch_up(started)
    stats = stats_conn.request({"schema": "paragraph-serve-v1",
                                "op": "stats"})
    ops.peak_rss_mb = daemon.vm_hwm_mb()
    for conn in conns + [stats_conn]:
        conn.close()
    check_misses(ctx, ops, miss_cells)

    expect_cached = hits * WARM_CELLS
    expect_computed = (len(s["serve"]) * WARM_CELLS + misses * MISS_CELLS)
    got = (stats.get("total_cells_cached"), stats.get("total_cells_computed"))
    ops.report = {
        "script_hits": hits, "script_misses": misses,
        "busy_replies": busy,
        "daemon_total_cells_cached": got[0],
        "daemon_total_cells_computed": got[1],
        "daemon_counts_match_script": got == (expect_cached, expect_computed),
        "trace_cached_mb": stats.get("trace_cached_bytes", 0) / 2**20,
        "hit_ratio": got[0] / (got[0] + got[1]) if got[1] else 0.0,
    }
    if got != (expect_cached, expect_computed):
        log(f"serve-mix: daemon counted cached/computed {got}, script "
            f"expects ({expect_cached}, {expect_computed})")
        ops.counts_ok = False
    return ops


def check_misses(ctx, ops, miss_cells):
    """Fail the miss ops whose cells differ from paragraph-sweep --no-timing
    runs of the same cells, one run per input (the daemon re-serve
    identity contract). @p miss_cells holds (op index, cell) pairs."""
    by_analog = {}
    for idx, cell in miss_cells:
        by_analog.setdefault(Path(cell["input"]).stem, []).append((idx, cell))
    out = ctx.work / "miss-refs.json"
    for analog, cells in by_analog.items():
        wins = sorted({c["config"]["window"] for _, c in cells})
        argv = [ctx.sweep, f"--inputs={analog}", "--no-timing", "--quiet",
                f"--max={ctx.scale['cap']}", "--rename=data",
                "--syscalls=stall", "--windows=" + ",".join(map(str, wins)),
                f"--out={out}"] + ctx.small
        if run_cli(argv, ctx.err)[2] != 0:
            raise BenchError(f"miss reference run failed: {argv}")
        refs = {cell_key(c): cell_digest(c)
                for c in json.loads(out.read_text())["cells"]}
        for idx, cell in cells:
            if refs.get(cell_key(cell)) != cell_digest(cell):
                ops.ok[idx] = False


CLI_WORKLOADS = {"sweep-sim": sweep_sim, "sweep-file": sweep_file,
                 "long-cell": long_cell}


# ---------------------------------------------------------------- results

def metric(name, value):
    return name, {"value": value, "unit": METRICS["end_to_end"][name]["unit"]}


def end_to_end(ctx):
    workload = ctx.args.workload
    if workload == "serve-mix":
        setup, ops = serve_mix(ctx)
        primary = "hit"
    else:
        setup, plan = CLI_WORKLOADS[workload](ctx)
        ops, primary = cli_rounds(ctx, plan), "op"
    scaled = workload in HOST_SCALED
    k = ctx.calib.scale() if scaled else 1.0
    p50, rate = ops.p50_ms(primary), ops.minstr_s()
    metrics = dict([metric("setup_s", setup * k),
                    metric("op_p50_ms", p50 * k),
                    metric("cell_minstr_s", rate / k),
                    metric("peak_rss_mb", ops.peak_rss_mb)])
    raw = {"setup_s": setup, "op_p50_ms": p50,
           "cell_minstr_s": rate} if scaled else {}
    print(f"workload {workload}: {ops.attempted} ops, closed loop, "
          f"1 client process, --jobs={JOBS}, seed {ctx.args.seed}")
    if scaled:
        calib = ctx.calib.walls
        print(f"  host speed: perfbench-calib median "
              f"{statistics.median(calib) * 1e3:.4g} ms over {len(calib)} "
              f"runs between ops, reference {REFERENCE_S * 1e3:.4g} ms; "
              f"timings are scaled by {k:.4f} to reference speed (raw in "
              f"brackets)")
    else:
        print("  host speed: not measured; timings are raw (this workload's "
              "ops do not follow the reference's drift)")

    def shown(ms):
        return f"{ms * k:.6g} ms" + (f" [raw {ms:.6g}]" if scaled else "")

    for name, m in metrics.items():
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}" +
              (f" [raw {raw[name]:.6g}]" if name in raw else ""))
    for cls in sorted(ops.walls):
        ms, pct, n = ops.tail(cls)
        if len(ops.walls) > 1:  # serve-mix: hit and miss, never pooled
            print(f"  {cls + '_p50_ms':<16} {shown(ops.p50_ms(cls))} (n={n})")
        print(f"  {cls + '_tail_ms':<16} " +
              (f"{shown(ms)} (p{pct:.1f}, n={n}, 10 ops beyond)" if ms
               else f"n/a (n={n}: too few ops for 10 beyond the median)"))
    print(f"  {'fail_ratio':<16} {ops.failed / ops.attempted:.6g} ratio "
          f"({ops.failed}/{ops.attempted})")
    for key, value in ops.report.items():
        print(f"  {key:<16} {value}")
    correct = ops.failed == 0 and ops.counts_ok
    return {"correct": correct, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}


# Ops the traced run repeats: enough to cover each op kind of a workload
# (sweep-file: one .ptrc and one .ptrz; serve-mix: two five-round script
# blocks untraced, and a warm, a hit and a miss request for each of two
# inputs in the probe).
TRACE_OPS = {"sweep-sim": 3, "sweep-file": 2, "long-cell": 1, "serve-mix": 2}


def traced_run(ctx):
    workload = ctx.args.workload
    k = TRACE_OPS[workload]
    ops = Ops()
    if workload == "serve-mix":
        setup, served = serve_mix(ctx, rounds=5 * k)
        untraced = served.walls["hit"]
        ops.ok += served.ok
        # The daemon's own counters, not the probe's in-process ones.
        direct = {name: served.report[key] for name, key in (
            ("serve.hit_ratio", "hit_ratio"),
            ("serve.trace_cached_mb", "trace_cached_mb"),
            ("serve.busy_replies", "busy_replies"))}
        s = ctx.scale
        probe_args = ["serve", f"--max={s['cap']}", f"--jobs={JOBS}"] + \
            WARM_FLAGS + ctx.small + s["serve"][:k]
        refs, cells, kinds = ctx.refs_warm, WARM_CELLS, ("hit",)
    else:
        setup, plan = CLI_WORKLOADS[workload](ctx)
        untraced = []
        for argv in plan.ops[:k]:
            wall, _, ok, _ = timed_op(ctx, argv, plan.out, plan.refs,
                                      plan.cells)
            ops.ok.append(ok)
            untraced.append(wall)
        probe_args = plan.probe + plan.inputs[:k]
        refs, cells, kinds = plan.refs, plan.cells, ("sweep",)
        # The set-up's writes are the workload's own trace writes.
        direct = {"trace.write_s": setup} \
            if workload in ("sweep-file", "long-cell") else {}

    spans = ctx.bdir / f"spans-{workload}.json"
    argv = [str(ctx.bdir / "probe" / "perfbench-probe"), probe_args[0],
            f"--spans={spans}", f"--prefix={ctx.work / 'probe-'}",
            f"--layer-cap={ctx.scale['cap']}"] + probe_args[1:]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    layers = dict(probe["metrics"])
    layers.update(direct)  # measured here; they override the probe's
    traced = [o for o in probe["ops"] if o["kind"] in kinds]
    for o in probe["ops"]:
        if o["doc"]:
            ops.ok.append(check_doc(json.loads(Path(o["doc"]).read_text()),
                                    refs, cells))
    wall_u = statistics.median(untraced)
    wall_t = statistics.mean(o["wall"] for o in traced)
    attributed = statistics.mean(o["attributed"] for o in traced)
    layers["unattributed_s"] = wall_u - attributed
    layers["trace_overhead_s"] = wall_t - wall_u
    missing = set(METRICS["per_layer"]) - set(layers)
    if missing:
        raise BenchError(f"probe did not measure {sorted(missing)}")

    print(f"workload {workload} (traced): {len(untraced)} untraced ops, "
          f"{len(probe['ops'])} probe ops, spans in {spans}")
    metrics = {}
    for name, spec in METRICS["per_layer"].items():
        metrics[name] = {"value": layers[name], "unit": spec["unit"]}
        print(f"  {name:<24} {layers[name]:.6g} {spec['unit']}")
    for name in ("unattributed_s", "trace_overhead_s"):
        print(f"  {name}: {METRICS['per_layer'][name]['times']}")
    print(f"  untraced op wall {wall_u:.6g} s, traced {wall_t:.6g} s, "
          f"layer spans {attributed:.6g} s, set-up {setup:.6g} s")
    return {"correct": ops.failed == 0, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"],
                        help="one workload, or all four in turn, each "
                             "ending with its own result line")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    ctx = Context(args)
    try:
        build(ctx.bdir, with_probe=bool(args.trace))
        ctx.work.mkdir(parents=True, exist_ok=True)
        print("machine " + json.dumps(machine_block(ctx.bdir)))
        for workload in WORKLOADS if args.workload == "all" else [
                args.workload]:
            args.workload = workload
            ctx.calib = Calibration(ctx.bdir)
            result = traced_run(ctx) if args.trace else end_to_end(ctx)
            cleanup(ctx.work)
            print(json.dumps(result), flush=True)
    except BenchError as err:
        log(f"perfbench: {err}")
        return 1
    finally:
        cleanup(ctx.work)
    return 0


def cleanup(work):
    if work.is_dir():
        for path in work.iterdir():
            path.unlink()


if __name__ == "__main__":
    sys.exit(main())
