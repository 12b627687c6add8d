#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``home-packet``: one paper home on the packet-level MiniCast CP,
  coordinated compared with uncoordinated over 60 simulated minutes;
* ``city-ideal``: ``City::run`` on 16 feeders x 8 paper homes, ideal CP;
* ``serve-lossy``: ``hansim serve --manual --cp lossy:0.3 --rate 0`` on
  loopback, driven open loop at a fixed rate by a seeded request script.

The command builds ``hansim`` and the harness in ``benchmark/harness``
from source (into ``$CARGO_TARGET_DIR``, default ``.bench_build``), runs
every measured piece of work in a process of its own, checks that the
outputs are correct, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer
ones, measured in separate, observed runs.

Run the benchmark's own tests with
``python3 -m unittest discover -s benchmark``.
"""

import argparse
import json
import os
import platform
import shutil
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import script as scripts  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("home-packet", "city-ideal", "serve-lossy")

# Harness processes that time the set-up; setup_s is their median.
SETUP_PROCESSES = 15
# The open-loop client may run at most this late (99th percentile of
# send time minus due time) before its session is flagged not valid.
# A flagged run still reports, with the flag on stderr and in its
# notes: its latencies then include the client's own lateness, which
# loadgen.lag_p99_ms gives in a traced run.
LATENESS_BOUND_MS = 1.0
# A serve session inside a batch workload's traced run (layer probes
# for the daemon path): its length and simulated ticks.
PROBE_SESSION_SECONDS = 3
PROBE_SESSION_TICKS = 60
# Rounds one scripted ADVANCE runs (one simulated minute), the unit of
# advance_p50_ms on every workload.
ADVANCE_ROUNDS = scripts.ROUNDS_PER_TICK


class RunInvalid(Exception):
    """The benchmark could not measure this run (not a program fault)."""


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "hansim"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join("benchmark", "harness", "Cargo.toml")],
    )
    for step in steps:
        if subprocess.run(step, cwd=ROOT, env=env, timeout=900).returncode != 0:
            fail(f"build failed: {' '.join(step)}")


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise RunInvalid("no output from the harness")
    return json.loads(lines[-1])


def harness(binary, *args, timeout=170):
    done = subprocess.run([binary, *map(str, args)], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RunInvalid(f"harness {args[0]} failed: {done.stderr.strip()}")
    return last_json(done.stdout)


def setup_seconds(binary, workload, seed):
    """The time to build the workload's inputs and program state: the
    median over SETUP_PROCESSES harness processes of each one's median
    over repeated builds."""
    return stats.percentile(
        [harness(binary, "setup", "--workload", workload, "--seed", seed)["setup_s"]
         for _ in range(SETUP_PROCESSES)], 50)


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------- batch


def run_batch(ctx, workload, seed, seconds, trace):
    h = ctx["harness"]
    checks = {}
    reference = ctx["reference"]
    default_seed = reference["default_seed"]

    ref = harness(h, "batch", "--workload", workload, "--seed", default_seed,
                  "--seconds", 0, "--min-iterations", 1)
    recorded = reference["digests"][workload]
    checks["default-seed digest matches the recorded one"] = ref["digest"] == recorded
    checks["default-seed run misses no deadline"] = ref["misses"] == 0

    argv = [h, "batch", "--workload", workload, "--seed", seed, "--seconds", seconds]
    if not trace:
        setup_s = setup_seconds(h, workload, seed)
        run = harness(*argv)
    else:
        run = harness(*argv, "--traced")
    checks["same-seed iterations give the same digest"] = run["same_digest"]
    checks["no deadline missed"] = run["misses"] == 0
    if seed == default_seed:
        checks["run digest matches the recorded one"] = run["digest"] == recorded

    walls = run["wall_s"]
    attempted = run["windows"]
    failed = run["misses"]
    if not trace:
        # CPU-bound figures at the reference speed (harness/src/speed.rs).
        speed = run["speed"]
        scaled_ms = [w * f * 1000 for w, f in zip(walls, speed)]
        scaled_cpu = [c * f for c, f in zip(run["cpu_s"], speed)]
        metrics = {
            "setup_s": (setup_s, "s"),
            "home_rounds_per_s": (sum(run["rounds"]) / (sum(scaled_ms) / 1000), "1/s"),
            "cpu_s": (stats.percentile(scaled_cpu, 50), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "req_p50_ms": (stats.percentile(scaled_ms, 50), "ms"),
            "req_p90_ms": (stats.percentile(scaled_ms, 90), "ms"),
            "advance_p50_ms": (stats.percentile(
                [ms / r * ADVANCE_ROUNDS for ms, r in zip(scaled_ms, run["rounds"])], 50), "ms"),
            "peak_reduction_pct": (ref["peak_reduction_pct"], "%"),
            "variation_reduction_pct": (ref["variation_reduction_pct"], "%"),
        }
        notes = {"iterations": len(walls), "raw_wall_s": walls, "raw_cpu_s": run["cpu_s"],
                 "speed": speed,
                 "seed_peak_reduction_pct": run["peak_reduction_pct"],
                 "seed_variation_reduction_pct": run["variation_reduction_pct"]}
        return metrics, checks, attempted, failed, notes

    probe = harness(h, "probe", "--workload", workload, "--seed", seed)
    checks["city and per-feeder paths give the same home digests"] = probe["city_paths_agree"]
    checks["captured status stream follows the run"] = probe["capture_follows_run"]
    layers = {}
    for part in ("radio_st", "cp_planner", "city"):
        layers.update(probe[part])
    layers["engine.event.ns"] = probe["engine.event.ns"]
    layers.update(run["home"] if workload == "home-packet" else probe["home"])
    layers["trace.overhead_pct"] = run["trace.overhead_pct"]
    session = serve_session(ctx, seed, PROBE_SESSION_SECONDS, PROBE_SESSION_TICKS,
                            trace=True, tag="probe")
    checks.update({f"daemon probe: {k}": v for k, v in session["checks"].items()})
    for key in ONLINE_LAYERS:
        layers[key] = session["layers"][key]
    metrics = {k: (v, LAYER_UNITS[k]) for k, v in layers.items()}
    return metrics, checks, attempted, failed, {"iterations": len(walls)}


# ---------------------------------------------------------------- serve

ONLINE_LAYERS = (
    "online.respond.us.inject", "online.respond.us.advance", "online.respond.us.status",
    "online.respond.us.checkpoint", "server.wait_ms", "server.handler_ms",
    "loadgen.lag_p99_ms", "loadgen.req_p99_ms", "loadgen.req_tail_pct",
    "loadgen.req_tail_ms", "loadgen.samples", "wire.srv.bytes", "wire.srv.encode_ms",
    "wire.srv.restore_ms",
)

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def start_daemon(hansim, seed, port):
    argv = [hansim, "serve", "--manual", "--cp", "lossy:0.3", "--rate", "0",
            "--seed", str(seed), "--listen", f"127.0.0.1:{port}"]
    return subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def connect(port, proc, timeout=10.0):
    """A connection to the daemon once it listens."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=timeout)
        except OSError:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RunInvalid("the daemon did not start listening")
            time.sleep(0.0005)


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def proc_figures(pid):
    """CPU seconds and peak resident set (MB) of a process, from
    /proc/<pid>: each thread's schedstat counts its CPU time in
    nanoseconds (stat's user and system ticks are 10 ms coarse)."""
    cpu_ns = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat", encoding="utf-8") as f:
            cpu_ns += int(f.read().split()[0])
    cpu_s = cpu_ns / 1e9
    with open(f"/proc/{pid}/status", encoding="utf-8") as f:
        hwm = next(l for l in f if l.startswith("VmHWM:"))
    return cpu_s, int(hwm.split()[1]) / 1024.0


def daemon_figures(proc):
    """CPU seconds and peak resident set (MB) of the daemon: from its
    /proc entry while it runs, from wait4 once it has exited (which
    reaps it; its ru_maxrss is then an upper bound, as it includes the
    resident set of this process at the spawn)."""
    running = os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
    if running:
        try:
            return proc_figures(proc.pid)
        except (OSError, StopIteration, ValueError):
            proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def closing_commands(loadgen, trace):
    """Sends the client's follow-up commands: METRICS (traced runs) and
    SHUTDOWN. Returns the daemon's exposition and whether it answered
    both."""
    exposition = {}
    try:
        if trace:
            loadgen.stdin.write("metrics\n")
            loadgen.stdin.flush()
            line = loadgen.stdout.readline()
            if not line:
                return exposition, False
            exposition = parse_metrics(json.loads(line)["metrics"])
        loadgen.stdin.write("shutdown\n")
        loadgen.stdin.flush()
        return exposition, bool(loadgen.stdout.readline())
    except (OSError, ValueError, KeyError):
        return exposition, False


def parse_metrics(text):
    values = {}
    for line in text.splitlines():
        if line and not line.startswith(("#", "OK")):
            name, _, value = line.rpartition(" ")
            values[name.strip()] = float(value)
    return values


def serve_session(ctx, seed, seconds, ticks, trace, tag):
    """One daemon driven by one seeded script, checked against the same
    script replayed in process."""
    work = os.path.join(ctx["work"], tag)
    os.makedirs(work, exist_ok=True)
    ckpt = os.path.join(work, "daemon.ckpt")
    script = scripts.make_script(seed, seconds, ckpt, ticks=ticks)
    script_path = os.path.join(work, "script.tsv")
    scripts.write_script(script_path, script)
    verbs = [scripts.verb(line) for _, line in script]
    checks = {"script injects only future events inside the window":
              not scripts.violations(script)}

    port = free_port()
    daemon = start_daemon(ctx["hansim"], seed, port)
    loadgen = None
    try:
        connect(port, daemon).close()
        loadgen = subprocess.Popen(
            [ctx["harness"], "loadgen", "--addr", f"127.0.0.1:{port}", "--script", script_path],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        first = loadgen.stdout.readline()
        if not first:
            raise RunInvalid(f"loadgen failed: {loadgen.stderr.read().strip()}")
        client = json.loads(first)
        # A dropped connection or missing replies are the daemon's
        # failures: they are counted, and the run still reports.
        answered = not client["dropped"] and client["received"] == client["requests"]
        daemon_cpu_s, daemon_rss_mb = daemon_figures(daemon)
        exposition, closed = closing_commands(loadgen, trace) if answered else ({}, False)
        loadgen.communicate(timeout=30)
        if closed:
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                closed = False
    finally:
        if loadgen is not None:
            stop(loadgen)
        stop(daemon)

    replay_args = ["--script", script_path, "--seed", seed, "--work", work]
    if os.path.exists(ckpt):
        replay_args += ["--restore", ckpt]
    replay = harness(ctx["harness"], "replay", *replay_args, *(["--traced"] if trace else []))

    lateness = client["lateness_ms"]
    lateness_p99 = stats.percentile(lateness, 99) if lateness else 0.0
    mismatched = sum(a != b for a, b in zip(client["fingerprints"], replay["fingerprints"]))
    daemon_digest = status_digest(client["final_reply"])
    checks.update({
        "every request answered OK": answered and client["errors"] == 0,
        "daemon answered the closing commands and exited": closed,
        "daemon replies equal the in-process replay": mismatched == 0
        and len(client["fingerprints"]) == len(replay["fingerprints"]),
        "daemon final digest equals the replay's": daemon_digest == replay["digest"] != "",
        "restoring the last checkpoint reproduces the digest":
        replay.get("restored_digest") == replay["digest"] and replay.get("snapshot_equal", False),
        "replayed window misses no deadline": replay["misses"] == 0
        and replay["uncoordinated_errors"] == 0,
    })

    # With no reply at all, the session's length stands in for latency.
    latency = client["latency_ms"] or [client["span_s"] * 1000]
    latency_by_verb = {}
    for v, ms in zip(verbs, client["latency_ms"]):
        latency_by_verb.setdefault(v, []).append(ms)
    session = {
        "checks": checks,
        "attempted": client["requests"],
        "failed": client["requests"] - (min(client["received"], client["requests"])
                                        - client["errors"]),
        "latency_ms": latency,
        "latency_by_verb": latency_by_verb,
        "daemon_cpu_s": daemon_cpu_s,
        "daemon_rss_mb": daemon_rss_mb,
        "rounds": ticks * scripts.ROUNDS_PER_TICK,
        "span_s": client["span_s"],
        "replay": replay,
        "lateness_p99_ms": lateness_p99,
        "outstanding": client["outstanding"],
    }
    if trace:
        handler_ms = [us / 1000 for us in replay["handler_us"]]
        wait_ms = [s - h for s, h in zip(client["socket_ms"], handler_ms)] or [0.0]
        by_verb = {}
        for v, us in zip(verbs, replay["handler_us"]):
            by_verb.setdefault(v, []).append(us)
        tail_p, tail_ms, count = stats.tail(latency)
        layers = {
            f"online.respond.us.{v.lower()}": stats.percentile(by_verb[v], 50)
            for v in ("INJECT", "ADVANCE", "STATUS", "CHECKPOINT")
        }
        layers.update({
            "server.wait_ms": stats.percentile(wait_ms, 50),
            "server.handler_ms": stats.percentile(handler_ms, 50),
            "loadgen.lag_p99_ms": lateness_p99,
            "loadgen.req_p99_ms": stats.percentile(latency, 99),
            "loadgen.req_tail_pct": tail_p,
            "loadgen.req_tail_ms": tail_ms,
            "loadgen.samples": count,
            "wire.srv.bytes": replay["wire.srv.bytes"],
            "wire.srv.encode_ms": replay["wire.srv.encode_ms"],
            "wire.srv.restore_ms": replay["wire.srv.restore_ms"],
            "trace.overhead_pct": replay["trace.overhead_pct"],
        })
        rounds = exposition.get("han_sim_rounds_total", 0) or 1
        invocations = exposition.get("han_planner_invocations_total", 0)
        attempted = exposition.get("han_cp_attempted_records_total", 0)
        layers.update({
            "planner.invocations_per_round": invocations / rounds,
            "planner.memo_hit_ratio":
                exposition.get("han_planner_memo_hits_total", 0) / invocations if invocations else 1.0,
            "pool.forks_per_round": exposition.get("han_pool_forks_total", 0) / rounds,
            "pool.in_place_edits_per_round":
                exposition.get("han_pool_in_place_edits_total", 0) / rounds,
            "pool.peak_views": exposition.get("han_pool_peak_views", 0),
            "cp.delivery_ratio":
                exposition.get("han_cp_delivered_records_total", 0) / attempted if attempted else 1.0,
            "sim.phase.comms.share": replay["home"]["sim.phase.comms.share"],
        })
        wait = layers["server.wait_ms"]
        handler = layers["server.handler_ms"]
        session["finding"] = (
            f"idle-sleep finding {'holds' if wait > 0.25 and handler < 0.2 * wait else 'does not hold'}:"
            f" median socket wait {wait:.3f} ms against median handler time {handler:.3f} ms"
            f" (the serve loop sleeps 2 ms when idle)")
        session["layers"] = layers
    return session


def status_digest(reply):
    for token in reply.split():
        if token.startswith("digest="):
            return token[len("digest="):]
    return ""


def run_serve(ctx, seed, seconds, trace):
    reference = ctx["reference"]
    default_seed = reference["default_seed"]
    work = os.path.join(ctx["work"], "reference")
    os.makedirs(work, exist_ok=True)
    ref_script = scripts.make_script(default_seed, reference["serve_script_seconds"],
                                     os.path.join(work, "ref.ckpt"))
    ref_path = os.path.join(work, "script.tsv")
    scripts.write_script(ref_path, ref_script)
    ref = harness(ctx["harness"], "replay", "--script", ref_path, "--seed", default_seed,
                  "--work", work)
    checks = {
        "default-seed digest matches the recorded one":
        ref["window_digest"] == reference["digests"]["serve-lossy"],
        "default-seed replay answers every request OK": ref["errors"] == 0,
    }

    setup_s = None if trace else setup_seconds(ctx["harness"], "serve-lossy", seed)
    before = None if trace else harness(ctx["harness"], "speed")
    session = serve_session(ctx, seed, seconds, scripts.TICKS, trace, tag="session")
    late = session["lateness_p99_ms"] > LATENESS_BOUND_MS
    if late:
        print(f"benchmark: run not valid: the client ran late (p99 "
              f"{session['lateness_p99_ms']:.3f} ms > {LATENESS_BOUND_MS} ms), "
              "so its latencies include that lateness", file=sys.stderr)
    checks.update(session["checks"])
    attempted, failed = session["attempted"], session["failed"]
    if trace:
        layers = dict(session["layers"])
        probe = harness(ctx["harness"], "probe", "--workload", "serve-lossy", "--seed", seed)
        checks["city and per-feeder paths give the same home digests"] = probe["city_paths_agree"]
        checks["captured status stream follows the run"] = probe["capture_follows_run"]
        for part in ("radio_st", "cp_planner", "city"):
            layers.update(probe[part])
        layers["engine.event.ns"] = probe["engine.event.ns"]
        metrics = {k: (v, LAYER_UNITS[k]) for k, v in layers.items()}
        return metrics, checks, attempted, failed, {"finding": session["finding"],
                                                    "client_late": late}
    # The daemon's CPU time at the reference speed, as batch work is
    # scaled (harness/src/speed.rs), by the calibrations around it.
    after = harness(ctx["harness"], "speed")
    speed = before["reference_s"] / ((before["calibration_s"] + after["calibration_s"]) / 2)
    latency = session["latency_ms"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "home_rounds_per_s": (session["rounds"] / session["span_s"], "1/s"),
        "cpu_s": (session["daemon_cpu_s"] * speed, "s"),
        "peak_rss_mb": (session["daemon_rss_mb"], "MB"),
        "req_p50_ms": (stats.percentile(latency, 50), "ms"),
        "req_p90_ms": (stats.percentile(latency, 90), "ms"),
        "advance_p50_ms": (stats.percentile(session["latency_by_verb"].get("ADVANCE", latency), 50),
                           "ms"),
        "peak_reduction_pct": (ref["peak_reduction_pct"], "%"),
        "variation_reduction_pct": (ref["variation_reduction_pct"], "%"),
    }
    tail_p, tail_ms, count = stats.tail(latency)
    notes = {"client_late": late, "samples": count, f"req_p{tail_p}_ms": tail_ms,
             "req_p99_ms": stats.percentile(latency, 99),
             "client_lateness_p99_ms": session["lateness_p99_ms"],
             "replies_outstanding_at_end": session["outstanding"],
             "raw_cpu_s": session["daemon_cpu_s"], "speed": speed,
             "req_ms_by_verb": {v: {"count": len(ms), "p50": stats.percentile(ms, 50),
                                    "p90": stats.percentile(ms, 90)}
                                for v, ms in sorted(session["latency_by_verb"].items())},
             "seed_peak_reduction_pct": session["replay"]["peak_reduction_pct"],
             "seed_variation_reduction_pct": session["replay"]["variation_reduction_pct"]}
    return metrics, checks, attempted, failed, notes


LAYER_UNITS = {
    "radio.resolve_slot.ns": "ns", "st.flood.us": "us", "st.minicast_round.us": "us",
    "sim.phase.comms.share": "ratio", "cp.round.us.ideal": "us", "cp.round.us.lossy": "us",
    "cp.round.us.packet": "us", "cp.delivery_ratio": "ratio", "pool.forks_per_round": "count",
    "pool.in_place_edits_per_round": "count", "pool.peak_views": "count",
    "planner.plan.us": "us", "planner.invocations_per_round": "count",
    "planner.memo_hit_ratio": "ratio", "engine.event.ns": "ns", "city.run.cpu_s": "s",
    "city.per_feeder.cpu_s": "s", "city.shared_heap_ratio": "ratio",
    "city.shard_imbalance_permille": "permille", "wire.faggr.bytes_per_feeder": "bytes",
    "wire.faggr.encode_mb_s": "MB/s", "wire.faggr.decode_mb_s": "MB/s",
    "wire.srv.bytes": "bytes", "wire.srv.encode_ms": "ms", "wire.srv.restore_ms": "ms",
    "online.respond.us.inject": "us", "online.respond.us.advance": "us",
    "online.respond.us.status": "us", "online.respond.us.checkpoint": "us",
    "server.wait_ms": "ms", "server.handler_ms": "ms", "loadgen.lag_p99_ms": "ms",
    "loadgen.req_p99_ms": "ms", "loadgen.req_tail_pct": "%", "loadgen.req_tail_ms": "ms",
    "loadgen.samples": "count", "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------- main


def environment():
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "host": platform.node(), "machine": platform.machine(),
            "rustc": rustc}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build(target)
    work = os.path.join(target, "perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    ctx = {
        "hansim": os.path.join(target, "release", "hansim"),
        "harness": os.path.join(target, "release", "han-perfbench"),
        "reference": load_reference(),
        "work": work,
    }
    try:
        if args.workload == "serve-lossy":
            result = run_serve(ctx, args.seed, args.seconds, args.trace)
        else:
            result = run_batch(ctx, args.workload, args.seed, args.seconds, args.trace)
    except (RunInvalid, subprocess.TimeoutExpired) as e:
        fail(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, checks, attempted, failed, notes = result

    correct = all(checks.values())
    if not correct:
        failed = max(failed, 1)
    if not args.trace:
        metrics["ok_ratio"] = (1.0 - failed / attempted if attempted else 0.0, "ratio")
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    if "finding" in notes:
        print(notes.pop("finding"))
    print("env " + json.dumps(environment()))
    print("notes " + json.dumps(notes))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
