#!/usr/bin/env python3
"""Smoke-check the JSON emitted by the repo's tools against their schemas.

Usage:
  check_bench_json.py <bench_hotpath binary> [extra bench args...]
  check_bench_json.py --sweep <paragraph-sweep binary> [sweep args...]
  check_bench_json.py --explore <paragraph-sweep binary> [sweep args...]
  check_bench_json.py --sweep-bench <bench_sweep binary> [bench args...]
  check_bench_json.py --fuzz-report <paragraph-fuzz binary> [fuzz args...]
  check_bench_json.py --serve <paragraph-serve binary>
      [--inputs=A,B] [--windows=16,64] [--max=N]

Default mode runs the benchmark with --json and validates the
paragraph-bench-hotpath-v1 document shape: schema id, timestamp, the
record size, a non-empty results array with the per-row fields, and the
geomean summary.

--sweep mode runs paragraph-sweep and validates the paragraph-sweep-v3
document: schema id, cell counters that agree with the cells array, an
ok/failed status on every cell, metrics on ok cells, and error/attempts
fields on failed ones.

--explore mode runs paragraph-sweep with --explore and validates the
paragraph-explore-v1 document: schema id, per-trace cell accounting
(executed + pruned == total, executed and pruned config sets disjoint and
jointly exhaustive), the Pareto frontier recomputed independently in
Python from the executed cells' (cost, parallelism) points with the cost
model mirrored from engine/explorer.cpp, and every dominance certificate
re-verified against measured bounding cells: the bound and dominator must
be executed ok cells, their recorded parallelism/cost must match the
cells byte-for-byte (both sides render doubles shortest-round-trip, so
equality is exact), and the dominance inequalities must hold — strictly
somewhere for exact certificates, within knee_tol for approximate ones.

--sweep-bench mode runs bench_sweep with --json and validates the
paragraph-bench-sweep-v4 document: schema id, the source × jobs × group ×
shard matrix rows with positive throughput (sources capture, stream, and
pooled), the solo/fused summary, the single-trace shard-scaling leg
(shard={1,2,4,8} over both the captured buffer and the pooled stream),
the identical_json flag (every run of the matrix produced the same
analysis), and the explore-vs-grid leg: identical_frontier must be true
and the explorer must have executed at most half the grid's cells.

--fuzz-report mode runs paragraph-fuzz with --json and validates the
paragraph-fuzz-v1 summary: schema id, iteration/check counters that are
internally consistent, and — when a violation was found — the failure
object with its stage, property, and reproducer paths.

--serve mode boots a paragraph-serve daemon on an ephemeral socket, runs
the requested grid cold and then warm, and validates the
paragraph-serve-v1 response envelope both times: cell accounting must add
up, the embedded document must itself be a valid paragraph-sweep-v3
document, the warm run must serve every cell from the cache, and its
document must be byte-identical to the cold one. It then validates the
health envelope (durability, load and store counters, fsync policy; a
clean run rejects no store entry) and — by
holding a connection against --max-clients=1 — the busy envelope with
its retry_after_ms hint.
Exit status is non-zero on any mismatch, so all modes double as CTests.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

SCHEMA = "paragraph-bench-hotpath-v1"
ROW_KEYS = {"input", "config", "path", "instructions", "seconds",
            "minstr_per_sec"}
SUMMARY_KEYS = {"stream_geomean_minstr_per_sec",
                "bulk_geomean_minstr_per_sec"}

SWEEP_SCHEMA = "paragraph-sweep-v3"
SWEEP_CELL_KEYS = {"input", "input_index", "config_index", "config",
                   "status"}
SWEEP_OK_KEYS = {"instructions", "critical_path", "available_parallelism"}
SWEEP_FAILED_KEYS = {"error", "attempts"}

FUZZ_SCHEMA = "paragraph-fuzz-v1"
FUZZ_KEYS = {"schema", "iters_requested", "iters_completed",
             "traces_checked", "mutants_checked", "records_analyzed",
             "round_trip_checks", "field_edit_checks", "properties",
             "violations", "failed"}
FUZZ_FAILURE_KEYS = {"iteration", "seed", "stage", "property", "message",
                     "records", "original_records"}

SERVE_SCHEMA = "paragraph-serve-v1"
SERVE_SWEEP_KEYS = {"cells_total", "cells_failed", "cells_cached",
                    "cells_computed", "document"}
SERVE_HEALTH_KEYS = {"pending_cells", "active_sweeps", "workers",
                     "store_entries", "store_disk_bytes", "store_appends",
                     "store_syncs", "store_compactions", "store_cold_reads",
                     "store_rejected_entries", "store_sync",
                     "failpoints_active", "failpoint_fires"}
SERVE_BUSY_KEYS = {"error", "retry_after_ms"}

SWEEP_BENCH_SCHEMA = "paragraph-bench-sweep-v4"
SWEEP_BENCH_ROW_KEYS = {"source", "jobs", "group", "shard", "cells",
                        "instructions", "seconds", "cells_per_sec",
                        "minstr_per_sec"}
SWEEP_BENCH_SOURCES = {"capture", "stream", "pooled"}
# The shard-scaling leg runs both split-and-patch paths: the captured
# buffer and the pooled stream (`.ptrz` cells have no block index and
# cannot shard).
SWEEP_BENCH_SHARD_SOURCES = {"capture", "pooled"}
SWEEP_BENCH_SUMMARY_KEYS = {"jobs1_solo_minstr_per_sec",
                            "jobs1_fused_minstr_per_sec",
                            "jobs1_fused_speedup", "shard_threads",
                            "shard1_minstr_per_sec",
                            "shardn_minstr_per_sec", "shard_speedup",
                            "shard_scaling_efficiency",
                            "capture_shard_speedup",
                            "explore_cells_total",
                            "explore_cells_executed",
                            "explore_cells_pruned",
                            "explore_fraction_executed",
                            "explore_grid_seconds", "explore_seconds",
                            "explore_speedup", "identical_frontier",
                            "identical_json"}


def fail(msg):
    print(f"check_bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_sweep_document(doc):
    """Validate a paragraph-sweep-v3 document dict; returns (cells, failed)."""
    if doc.get("schema") != SWEEP_SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, expected {SWEEP_SCHEMA!r}")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        fail("cells must be a non-empty array")
    if doc.get("cells_total") != len(cells):
        fail(f"cells_total is {doc.get('cells_total')}, "
             f"but the document has {len(cells)} cells")
    failed = 0
    for i, cell in enumerate(cells):
        missing = SWEEP_CELL_KEYS - cell.keys()
        if missing:
            fail(f"cells[{i}] missing keys {sorted(missing)}")
        status = cell["status"]
        if status == "ok":
            missing = SWEEP_OK_KEYS - cell.keys()
            if missing:
                fail(f"cells[{i}] is ok but missing {sorted(missing)}")
            if cell["instructions"] <= 0:
                fail(f"cells[{i}] ran zero instructions")
        elif status == "failed":
            failed += 1
            missing = SWEEP_FAILED_KEYS - cell.keys()
            if missing:
                fail(f"cells[{i}] failed but missing {sorted(missing)}")
            if not cell["error"]:
                fail(f"cells[{i}] failed with an empty error")
        else:
            fail(f"cells[{i}] has unknown status {status!r}")
    if doc.get("cells_failed") != failed:
        fail(f"cells_failed is {doc.get('cells_failed')}, "
             f"but {failed} cells report failure")
    return cells, failed


def check_sweep(argv):
    if not argv:
        fail("usage: check_bench_json.py --sweep <paragraph-sweep> [args...]")
    proc = subprocess.run(argv, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"paragraph-sweep exited with status {proc.returncode}")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        fail(f"output is not valid JSON: {err}")
    cells, failed = validate_sweep_document(doc)
    print(f"ok: {len(cells)} cells ({failed} failed), schema {SWEEP_SCHEMA}")


EXPLORE_SCHEMA = "paragraph-explore-v1"
EXPLORE_TRACE_KEYS = {"input", "input_index", "cells_total",
                      "cells_executed", "cells_pruned", "cells_failed",
                      "cells", "frontier", "pruned"}
EXPLORE_CERT_KEYS = {"axes", "direction", "bound_config_index",
                     "bound_parallelism", "dominator_config_index",
                     "dominator_cost", "dominator_parallelism",
                     "approximate"}
EXPLORE_AXES = {"window", "rename", "syscalls", "predictor", "fus"}
EXPLORE_PREDICTOR_COST = {"perfect": 8, "bimodal": 2, "always-taken": 1,
                          "never-taken": 1, "always-wrong": 0}


def explore_cost(config):
    """Mirror of engine::exploreCost (explorer.cpp): integer cost so the
    frontier and certificate arithmetic can be re-derived exactly."""
    window = config["window"]
    window_cost = 64 if window == 0 else window.bit_length()
    fus = config["total_fus"]
    fu_cost = 32 if fus == 0 else fus.bit_length()
    rename_cost = 2 * (int(config["rename_regs"]) +
                       int(config["rename_stack"]) +
                       int(config["rename_data"]))
    return (window_cost + fu_cost + rename_cost +
            EXPLORE_PREDICTOR_COST[config["predictor"]])


def explore_frontier(points):
    """Mirror of engine::paretoFrontier over {index: (cost, par)}:
    non-dominated indices sorted by (cost, index)."""
    front = []
    for i, (cost, par) in points.items():
        dominated = any(
            c2 <= cost and p2 >= par and (c2 < cost or p2 > par)
            for j, (c2, p2) in points.items() if j != i)
        if not dominated:
            front.append(i)
    return sorted(front, key=lambda i: (points[i][0], i))


def validate_explore_trace(t, doc, n_configs):
    """Validate one per-trace block; returns (executed, pruned) counts."""
    ti = t["input_index"]
    if t.get("cells_total") != n_configs:
        fail(f"trace {ti}: cells_total is {t.get('cells_total')}, "
             f"expected {n_configs}")
    cells = t["cells"]
    pruned = t["pruned"]
    if t["cells_executed"] != len(cells) or t["cells_pruned"] != len(pruned):
        fail(f"trace {ti}: executed/pruned counters disagree with arrays")
    if len(cells) + len(pruned) != n_configs:
        fail(f"trace {ti}: {len(cells)} executed + {len(pruned)} pruned "
             f"!= {n_configs} configs")

    # Executed cells are full sweep cells; re-derive their cost and
    # parallelism points and the failure count.
    points = {}
    failed = 0
    for i, cell in enumerate(cells):
        missing = SWEEP_CELL_KEYS - cell.keys()
        if missing:
            fail(f"trace {ti} cells[{i}] missing keys {sorted(missing)}")
        j = cell["config_index"]
        if j in points or any(p["config_index"] == j for p in pruned):
            fail(f"trace {ti}: config {j} appears more than once")
        if cell["status"] == "ok":
            points[j] = (explore_cost(cell["config"]),
                         cell["available_parallelism"])
        else:
            failed += 1
            points[j] = None
    if t["cells_failed"] != failed:
        fail(f"trace {ti}: cells_failed is {t['cells_failed']}, "
             f"but {failed} cells report failure")
    ok_points = {j: p for j, p in points.items() if p is not None}

    # The frontier must match an independent Python recomputation.
    front = t["frontier"]
    if [f["config_index"] for f in front] != explore_frontier(ok_points):
        fail(f"trace {ti}: frontier disagrees with the recomputed "
             f"Pareto frontier")
    for f in front:
        cost, par = ok_points[f["config_index"]]
        if f["cost"] != cost or f["parallelism"] != par:
            fail(f"trace {ti}: frontier entry {f['config_index']} "
                 f"disagrees with its executed cell")

    # Every pruned cell carries a certificate that re-verifies against
    # measured bounding cells.
    tol = doc["knee_tol"]
    for p in pruned:
        j = p["config_index"]
        cert = p["certificate"]
        missing = EXPLORE_CERT_KEYS - cert.keys()
        if missing:
            fail(f"trace {ti} pruned {j}: certificate missing "
                 f"{sorted(missing)}")
        if cert["direction"] != "up":
            fail(f"trace {ti} pruned {j}: direction "
                 f"{cert['direction']!r}, expected 'up'")
        bad_axes = set(cert["axes"]) - EXPLORE_AXES
        if bad_axes:
            fail(f"trace {ti} pruned {j}: unknown axes {sorted(bad_axes)}")
        bound = cert["bound_config_index"]
        dom = cert["dominator_config_index"]
        if bound not in ok_points or dom not in ok_points:
            fail(f"trace {ti} pruned {j}: certificate references "
                 f"unmeasured cells ({bound}, {dom})")
        if cert["bound_parallelism"] != ok_points[bound][1]:
            fail(f"trace {ti} pruned {j}: bound_parallelism disagrees "
                 f"with measured cell {bound}")
        if (cert["dominator_cost"] != ok_points[dom][0] or
                cert["dominator_parallelism"] != ok_points[dom][1]):
            fail(f"trace {ti} pruned {j}: dominator fields disagree "
                 f"with measured cell {dom}")
        d_cost, d_par = ok_points[dom]
        b_par = cert["bound_parallelism"]
        if cert["approximate"]:
            if doc["exact"]:
                fail(f"trace {ti} pruned {j}: approximate certificate "
                     f"inside an exact document")
            sound = d_cost < p["cost"] and d_par >= b_par - tol
        else:
            sound = (d_cost <= p["cost"] and d_par >= b_par and
                     (d_cost < p["cost"] or d_par > b_par))
        if not sound:
            fail(f"trace {ti} pruned {j}: dominance does not hold "
                 f"(cost {d_cost} vs {p['cost']}, par {d_par} vs "
                 f"bound {b_par})")
    return len(cells), len(pruned)


def check_explore(argv):
    if not argv:
        fail("usage: check_bench_json.py --explore <paragraph-sweep> "
             "[args...]")
    if "--explore" not in argv:
        argv = argv + ["--explore"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"paragraph-sweep exited with status {proc.returncode}")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        fail(f"output is not valid JSON: {err}")

    if doc.get("schema") != EXPLORE_SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, expected {EXPLORE_SCHEMA!r}")
    for key in ("knee_tol", "exact", "inputs", "configs", "cells_total",
                "cells_executed", "cells_pruned", "cells_failed", "rounds",
                "traces"):
        if key not in doc:
            fail(f"missing top-level key {key!r}")
    if doc["knee_tol"] < 0:
        fail(f"negative knee_tol {doc['knee_tol']}")
    if doc["knee_tol"] == 0 and doc["exact"] is not True:
        fail("knee_tol is 0 but the document is not exact")
    traces = doc["traces"]
    n_configs = doc["configs"]
    if not isinstance(traces, list) or len(traces) != doc["inputs"]:
        fail(f"traces has {len(traces)} entries, inputs says "
             f"{doc['inputs']}")
    if doc["cells_total"] != doc["inputs"] * n_configs:
        fail(f"cells_total is {doc['cells_total']}, expected "
             f"{doc['inputs']} x {n_configs}")

    executed = pruned = failed = 0
    for t in traces:
        missing = EXPLORE_TRACE_KEYS - t.keys()
        if missing:
            fail(f"trace missing keys {sorted(missing)}")
        e, p = validate_explore_trace(t, doc, n_configs)
        executed += e
        pruned += p
        failed += t["cells_failed"]
    if (doc["cells_executed"] != executed or
            doc["cells_pruned"] != pruned or doc["cells_failed"] != failed):
        fail("top-level cell counters disagree with the per-trace sums")
    print(f"ok: {executed}/{doc['cells_total']} cells executed, "
          f"{pruned} pruned with verified certificates, "
          f"{len(traces)} frontiers recomputed, schema {EXPLORE_SCHEMA}")


def serve_round_trip(binary, socket_path, raw_line):
    """One client round trip; returns the parsed response object."""
    proc = subprocess.run(
        [binary, "--client", f"--socket={socket_path}",
         f"--raw={raw_line}", "--quiet"],
        stdout=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"serve client exited with status {proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        fail(f"serve response is not valid JSON: {err}")


def validate_serve_sweep_response(resp, expected_cells):
    if resp.get("schema") != SERVE_SCHEMA:
        fail(f"response schema is {resp.get('schema')!r}, "
             f"expected {SERVE_SCHEMA!r}")
    if resp.get("status") != "ok":
        fail(f"daemon error: {resp.get('error')!r}")
    if resp.get("op") != "sweep":
        fail(f"response op is {resp.get('op')!r}, expected 'sweep'")
    missing = SERVE_SWEEP_KEYS - resp.keys()
    if missing:
        fail(f"sweep response missing keys {sorted(missing)}")
    total = resp["cells_total"]
    if total != expected_cells:
        fail(f"cells_total is {total}, expected {expected_cells}")
    if resp["cells_cached"] + resp["cells_computed"] + \
            resp["cells_failed"] != total:
        fail("cached + computed + failed does not add up to cells_total")
    if resp["cells_failed"] != 0:
        fail(f"{resp['cells_failed']} cells failed")
    try:
        doc = json.loads(resp["document"])
    except json.JSONDecodeError as err:
        fail(f"embedded document is not valid JSON: {err}")
    cells, _ = validate_sweep_document(doc)
    if len(cells) != expected_cells:
        fail(f"embedded document has {len(cells)} cells, "
             f"expected {expected_cells}")


def validate_serve_health_response(resp, expected_entries, expected_sync):
    if resp.get("schema") != SERVE_SCHEMA:
        fail(f"health schema is {resp.get('schema')!r}")
    if resp.get("status") != "ok" or resp.get("op") != "health":
        fail(f"health probe failed: {resp!r}")
    missing = SERVE_HEALTH_KEYS - resp.keys()
    if missing:
        fail(f"health response missing keys {sorted(missing)}")
    for key in SERVE_HEALTH_KEYS - {"store_sync"}:
        if not isinstance(resp[key], int) or resp[key] < 0:
            fail(f"health field {key} is {resp[key]!r}, "
                 "expected a non-negative integer")
    if resp["store_entries"] != expected_entries:
        fail(f"health reports {resp['store_entries']} store entries, "
             f"expected {expected_entries}")
    if resp["store_sync"] != expected_sync:
        fail(f"health reports store_sync {resp['store_sync']!r}, "
             f"expected {expected_sync!r}")
    if resp["workers"] == 0:
        fail("health reports zero workers")
    # A clean run writes and reads back only whole, checksummed entries.
    if resp["store_rejected_entries"] != 0:
        fail(f"health reports {resp['store_rejected_entries']} rejected "
             "store entries on a clean run")


def raw_unix_round_trip(socket_path, line, hold=None):
    """Send one line over a raw AF_UNIX connection and read one line back.

    The optional held connection (`hold`) stays open across the call so the
    daemon's connection cap can be exercised deterministically.
    """
    import socket as socketlib
    conn = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    conn.settimeout(30)
    conn.connect(socket_path)
    try:
        try:
            conn.sendall(line.encode() + b"\n")
        except BrokenPipeError:
            # A daemon shedding at accept writes its busy line and closes
            # before reading; the response is still queued for us to read.
            pass
        buf = b""
        while b"\n" not in buf:
            chunk = conn.recv(4096)
            if not chunk:
                fail("daemon closed the raw connection mid-response")
            buf += chunk
        return json.loads(buf.split(b"\n", 1)[0])
    finally:
        conn.close()


def validate_serve_busy_response(resp):
    if resp.get("schema") != SERVE_SCHEMA:
        fail(f"busy schema is {resp.get('schema')!r}")
    if resp.get("status") != "busy":
        fail(f"expected a busy response, got {resp!r}")
    missing = SERVE_BUSY_KEYS - resp.keys()
    if missing:
        fail(f"busy response missing keys {sorted(missing)}")
    retry = resp["retry_after_ms"]
    if not isinstance(retry, int) or retry <= 0:
        fail(f"busy retry_after_ms is {retry!r}, expected a positive "
             "integer hint")


def check_serve(argv):
    if not argv:
        fail("usage: check_bench_json.py --serve <paragraph-serve> "
             "[--inputs=A,B] [--windows=16,64] [--max=N]")
    binary = argv[0]
    inputs = ["xlisp"]
    windows = [16, 64]
    max_instructions = 0
    small = False
    for arg in argv[1:]:
        if arg.startswith("--inputs="):
            inputs = [s for s in arg[len("--inputs="):].split(",") if s]
        elif arg.startswith("--windows="):
            windows = [int(s) for s in arg[len("--windows="):].split(",")]
        elif arg.startswith("--max="):
            max_instructions = int(arg[len("--max="):])
        elif arg == "--small":
            small = True
        else:
            fail(f"unknown --serve argument {arg!r}")

    request = {"schema": SERVE_SCHEMA, "op": "sweep", "inputs": inputs,
               "windows": windows}
    if max_instructions:
        request["max"] = max_instructions
    if small:
        request["small"] = True
    raw_line = json.dumps(request)
    expected_cells = len(inputs) * len(windows)

    tmpdir = tempfile.mkdtemp(prefix="para_serve_")
    socket_path = os.path.join(tmpdir, "serve.sock")
    store_path = os.path.join(tmpdir, "store.jsonl")
    daemon_args = [binary, f"--socket={socket_path}",
                   f"--store={store_path}", "--jobs=2", "--quiet",
                   "--store-sync=cell", "--max-clients=1"]
    if small:
        daemon_args.append("--small")
    daemon = subprocess.Popen(daemon_args)
    try:
        for _ in range(1000):
            if os.path.exists(socket_path):
                break
            if daemon.poll() is not None:
                fail(f"daemon exited early with status {daemon.returncode}")
            time.sleep(0.01)
        else:
            fail("daemon never bound its socket")

        cold = serve_round_trip(binary, socket_path, raw_line)
        validate_serve_sweep_response(cold, expected_cells)
        if cold["cells_computed"] != expected_cells:
            fail(f"cold run computed {cold['cells_computed']} cells, "
                 f"expected {expected_cells}")

        warm = serve_round_trip(binary, socket_path, raw_line)
        validate_serve_sweep_response(warm, expected_cells)
        if warm["cells_cached"] != expected_cells:
            fail(f"warm run served {warm['cells_cached']} cells from the "
                 f"cache, expected all {expected_cells}")
        if warm["document"] != cold["document"]:
            fail("warm document differs from the cold one")

        health = serve_round_trip(
            binary, socket_path,
            json.dumps({"schema": SERVE_SCHEMA, "op": "health"}))
        validate_serve_health_response(health, expected_cells, "cell")

        # A connection held open exhausts --max-clients=1; the next
        # client must be shed at accept with a busy envelope.
        import socket as socketlib
        hold = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        hold.settimeout(30)
        hold.connect(socket_path)
        try:
            busy = raw_unix_round_trip(
                socket_path,
                json.dumps({"schema": SERVE_SCHEMA, "op": "ping"}))
            validate_serve_busy_response(busy)
        finally:
            hold.close()

        # The slot frees asynchronously; wait for service to resume.
        for _ in range(100):
            resumed = raw_unix_round_trip(
                socket_path,
                json.dumps({"schema": SERVE_SCHEMA, "op": "ping"}))
            if resumed.get("status") == "ok":
                break
            time.sleep(0.01)
        else:
            fail("daemon never recovered after the held connection closed")

        shutdown = serve_round_trip(
            binary, socket_path,
            json.dumps({"schema": SERVE_SCHEMA, "op": "shutdown"}))
        if shutdown.get("status") != "ok":
            fail("shutdown op was not acknowledged")
        if daemon.wait(timeout=30) != 0:
            fail(f"daemon exited with status {daemon.returncode}")
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
            daemon.wait()
        for name in ("serve.sock", "store.jsonl"):
            path = os.path.join(tmpdir, name)
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(tmpdir)
    print(f"ok: {expected_cells} cells cold+warm, warm fully cached, "
          f"health + busy envelopes valid, schema {SERVE_SCHEMA}")


def check_fuzz_report(argv):
    if not argv:
        fail("usage: check_bench_json.py --fuzz-report <paragraph-fuzz> "
             "[args...]")
    proc = subprocess.run(argv + ["--json"], stdout=subprocess.PIPE)
    # 0 = clean run, 1 = violation found; both must emit a valid document.
    if proc.returncode not in (0, 1):
        fail(f"paragraph-fuzz exited with status {proc.returncode}")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        fail(f"output is not valid JSON: {err}")

    if doc.get("schema") != FUZZ_SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, expected {FUZZ_SCHEMA!r}")
    missing = FUZZ_KEYS - doc.keys()
    if missing:
        fail(f"missing top-level keys {sorted(missing)}")
    if doc["iters_completed"] > doc["iters_requested"]:
        fail("iters_completed exceeds iters_requested")
    if doc["traces_checked"] <= 0:
        fail("no traces were checked")
    if doc["mutants_checked"] > doc["traces_checked"]:
        fail("more mutants than traces: one mutant per trace at most")
    if doc["records_analyzed"] <= 0:
        fail("no records were analyzed")
    if doc["properties"] < 12:
        fail(f"only {doc['properties']} properties in the catalogue, "
             "expected at least 12")
    failed = doc["failed"]
    if failed != (proc.returncode == 1):
        fail(f"failed={failed} disagrees with exit status "
             f"{proc.returncode}")
    if failed != (doc["violations"] > 0):
        fail(f"failed={failed} but violations={doc['violations']}")
    if not failed and doc["iters_completed"] != doc["iters_requested"]:
        fail("a clean run must complete every requested iteration")
    if failed:
        failure = doc.get("failure")
        if not isinstance(failure, dict):
            fail("failed run without a failure object")
        missing = FUZZ_FAILURE_KEYS - failure.keys()
        if missing:
            fail(f"failure missing keys {sorted(missing)}")
        if not failure["property"] or not failure["stage"]:
            fail("failure must name its property and stage")
        if failure["records"] > failure["original_records"]:
            fail("minimized record count exceeds the original")
    elif "failure" in doc:
        fail("clean run carries a failure object")
    state = "violation found" if failed else "clean"
    print(f"ok: {doc['iters_completed']}/{doc['iters_requested']} "
          f"iterations, {doc['properties']} properties, {state}, "
          f"schema {FUZZ_SCHEMA}")
    sys.exit(proc.returncode)


def check_sweep_bench(argv):
    if not argv:
        fail("usage: check_bench_json.py --sweep-bench <bench_sweep> "
             "[args...]")
    proc = subprocess.run(argv + ["--json"], stdout=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"bench_sweep exited with status {proc.returncode}")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        fail(f"output is not valid JSON: {err}")

    if doc.get("schema") != SWEEP_BENCH_SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, "
             f"expected {SWEEP_BENCH_SCHEMA!r}")
    for key in ("timestamp", "input", "configs", "max_instructions",
                "repeats"):
        if key not in doc:
            fail(f"missing top-level key {key!r}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail("results must be a non-empty array")
    sources = set()
    shard_points = {}
    for i, row in enumerate(results):
        missing = SWEEP_BENCH_ROW_KEYS - row.keys()
        if missing:
            fail(f"results[{i}] missing keys {sorted(missing)}")
        if row["source"] not in SWEEP_BENCH_SOURCES:
            fail(f"results[{i}] has unknown source {row['source']!r}")
        sources.add(row["source"])
        if row["shard"] <= 0:
            fail(f"results[{i}] has non-positive shard count")
        shard_points.setdefault(row["source"], set()).add(row["shard"])
        if row["cells"] <= 0 or row["instructions"] <= 0:
            fail(f"results[{i}] swept no work")
        if row["minstr_per_sec"] <= 0 or row["cells_per_sec"] <= 0:
            fail(f"results[{i}] reports non-positive throughput")
    if sources != SWEEP_BENCH_SOURCES:
        fail(f"matrix covers sources {sorted(sources)}, "
             f"expected {sorted(SWEEP_BENCH_SOURCES)}")
    for source in sorted(SWEEP_BENCH_SHARD_SOURCES):
        points = shard_points.get(source, set())
        if len(points) < 2 or max(points) <= 1:
            fail(f"source {source!r} has no sharded scaling points "
                 f"(shards seen: {sorted(points)})")
    summary = doc.get("summary")
    if not isinstance(summary, dict) or \
            SWEEP_BENCH_SUMMARY_KEYS - summary.keys():
        fail("summary must contain the solo/fused throughput comparison, "
             "the shard-scaling block, and identical_json")
    if summary["identical_json"] is not True:
        fail("identical_json is not true: the matrix diverged")
    if summary["jobs1_fused_speedup"] <= 0:
        fail("jobs1_fused_speedup is non-positive")
    if summary["shard_threads"] <= 0:
        fail("shard_threads is non-positive")
    # Shard scaling efficiency is reported, not asserted: its magnitude is
    # machine-dependent (on a 1-core runner the sharded legs cannot beat
    # solo), but the measurement must at least exist and be positive.
    if summary["shard1_minstr_per_sec"] <= 0 or \
            summary["shardn_minstr_per_sec"] <= 0:
        fail("shard throughput legs are non-positive")
    if summary["shard_scaling_efficiency"] <= 0:
        fail("shard_scaling_efficiency is non-positive")
    if summary["capture_shard_speedup"] <= 0:
        fail("capture_shard_speedup is non-positive")
    # Explore-vs-grid leg: the frontier identity and the executed-cell
    # fraction are deterministic (seeded exploration over a fixed grid),
    # so both ARE asserted; the wall-time speedup is machine-dependent
    # and only required to exist.
    if summary["identical_frontier"] is not True:
        fail("identical_frontier is not true: the explorer's Pareto "
             "frontier diverged from the full grid's")
    ex_total = summary["explore_cells_total"]
    ex_run = summary["explore_cells_executed"]
    if ex_total <= 0 or ex_run <= 0:
        fail("explore leg ran no cells")
    if ex_run + summary["explore_cells_pruned"] != ex_total:
        fail("explore executed + pruned does not add up to the grid size")
    if ex_run * 2 > ex_total:
        fail(f"explore executed {ex_run}/{ex_total} cells, more than "
             "half the grid — pruning regressed")
    if abs(summary["explore_fraction_executed"] - ex_run / ex_total) > 1e-12:
        fail("explore_fraction_executed disagrees with the cell counts")
    if summary["explore_grid_seconds"] <= 0 or \
            summary["explore_seconds"] <= 0:
        fail("explore timing legs are non-positive")
    print(f"ok: {len(results)} rows, schema {SWEEP_BENCH_SCHEMA}, "
          f"jobs1 fused speedup {summary['jobs1_fused_speedup']:.2f}x, "
          f"pooled shard speedup {summary['shard_speedup']:.2f}x / capture "
          f"{summary['capture_shard_speedup']:.2f}x at "
          f"{summary['shard_threads']} shards, explore {ex_run}/{ex_total} "
          f"cells with an identical frontier")


def main():
    if len(sys.argv) < 2:
        fail("usage: check_bench_json.py [--sweep|--explore|--sweep-bench|"
             "--fuzz-report|--serve] <binary> [args...]")
    if sys.argv[1] == "--sweep":
        check_sweep(sys.argv[2:])
        return
    if sys.argv[1] == "--explore":
        check_explore(sys.argv[2:])
        return
    if sys.argv[1] == "--serve":
        check_serve(sys.argv[2:])
        return
    if sys.argv[1] == "--sweep-bench":
        check_sweep_bench(sys.argv[2:])
        return
    if sys.argv[1] == "--fuzz-report":
        check_fuzz_report(sys.argv[2:])
        return
    cmd = sys.argv[1:] + ["--json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"benchmark exited with status {proc.returncode}")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        fail(f"output is not valid JSON: {err}")

    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for key in ("timestamp", "max_instructions", "repeats", "record_bytes"):
        if key not in doc:
            fail(f"missing top-level key {key!r}")
    if doc["record_bytes"] <= 0:
        fail("record_bytes must be positive")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail("results must be a non-empty array")
    for i, row in enumerate(results):
        missing = ROW_KEYS - row.keys()
        if missing:
            fail(f"results[{i}] missing keys {sorted(missing)}")
        if row["instructions"] <= 0:
            fail(f"results[{i}] ran zero instructions")
        if row["minstr_per_sec"] <= 0:
            fail(f"results[{i}] reports non-positive throughput")
        if row["path"] not in ("stream", "bulk"):
            fail(f"results[{i}] has unknown path {row['path']!r}")
    summary = doc.get("summary")
    if not isinstance(summary, dict) or SUMMARY_KEYS - summary.keys():
        fail("summary must contain the stream and bulk geomeans")
    for key in SUMMARY_KEYS:
        if summary[key] <= 0:
            fail(f"summary {key} is non-positive")
    print(f"ok: {len(results)} rows, schema {SCHEMA}")


if __name__ == "__main__":
    main()
