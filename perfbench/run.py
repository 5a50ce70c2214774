"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload {figure2,population,daemon_mixed}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is run the way users run
it -- the CLI from a cold interpreter, the daemon in its own process --
and only sees inputs made from ``--seed``.  Every run checks the
program's output and prints, as its last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one
traced run with ``--trace 1``.  The line before it (``detail {...}``)
carries every sample count and ungated diagnostic.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join("perfbench", ".work")

FIGURE2_ARGS = ["figure2", "--machines", "C", "D", "F", "--days", "28"]
POPULATION_DAYS = 3.0
#: Trace records the sampled fleet must reach; the machine count is the
#: smallest that does, so every seed brings about the same work.
POPULATION_RECORDS = 140_000
#: CLI invocations per run, at least; more while ``--seconds`` lasts.
MIN_INVOCATIONS = 2

#: References each daemon tenant replays; each of machines A-I gives
#: SEGMENTS tenants, and its trace is first generated for DAEMON_DAYS.
TENANT_EVENTS = 1000
SEGMENTS = 3
DAEMON_DAYS = 14.0
#: Events per frame on the stream lane; it fills once per simulated day.
STREAM_BATCH = 256
#: Events per frame on the refill lane; it fills after every frame.
REFILL_BATCH = 128
DAY = 86400.0

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}

#: Seconds of host-speed calibration before the first job and after each.
CALIBRATION_S = 0.5
#: Seconds one ``host_unit`` took on the 2-core host the benchmark was
#: written on, in its steady periods; ``wall_ref_s`` is given at that speed.
REFERENCE_UNIT_S = 0.0085


class CheckFailed(Exception):
    """The program's output was wrong."""


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: host speed, ungated."""
    started = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return time.perf_counter() - started


def host_unit() -> float:
    """Seconds for one fixed unit of interpreter work of the program's
    kind -- path strings, dicts, sets, small objects, a sort -- made of
    the benchmark's own code, so no change to the program moves it.

    The collector is off while it runs: a collection would walk the
    benchmark's own heap, whose size differs between workloads."""
    gc.disable()
    started = time.perf_counter()
    counts: Dict[str, int] = {}
    names = set()
    for index in range(4500):
        path = f"/home/user{index % 7}/src/mod{index % 41}/file{index % 173}.c"
        parts = path.split("/")
        parent = "/".join(parts[:-1])
        counts[parent] = counts.get(parent, 0) + len(parts[-1])
        names.add(parts[-1].upper())
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    lengths = {name: len(name) for name in names}
    ordered.extend(sorted(lengths.items()))
    elapsed = time.perf_counter() - started
    gc.enable()
    return elapsed


class HostSpeed:
    """How fast the host runs interpreter work during one run.

    The shared host's speed drifts by a third over minutes, mostly per
    instruction (CPU time tracks wall time), so wall times of runs
    minutes apart differ by more than any bound.  Host units
    timed before the first job and after each one, in the same run and
    never beside a job, measure that drift; ``scale`` converts the
    run's wall times to the reference host speed.
    """

    def __init__(self) -> None:
        self.units: List[float] = []

    def sample(self, seconds: float = CALIBRATION_S) -> None:
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            self.units.append(host_unit())

    def scale(self) -> float:
        return REFERENCE_UNIT_S / statistics.fmean(self.units)

    def detail(self) -> Dict[str, Any]:
        return {"host_unit_s": statistics.fmean(self.units),
                "host_units": len(self.units)}


def quantile(values: List[float], fraction: float) -> float:
    """Nearest-rank quantile (the daemon's own convention)."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(fraction * len(ordered))))
    return ordered[rank - 1]


def environment() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def wait_for(proc: subprocess.Popen) -> Tuple[int, float, float]:
    """Reap *proc*; returns its exit code, peak RSS in MB and CPU
    seconds (user + system).

    ``wait4`` reports the high-water mark of that process and of the
    children it waited for (a pool's workers), not of this one.
    """
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime)


def ready_time(stderr_text: str) -> float:
    match = re.search(r"^perfbench-ready ([0-9.]+)$", stderr_text, re.M)
    if match is None:
        raise CheckFailed("the launcher never reported ready")
    return float(match.group(1))


# ----------------------------------------------------------------------
# the CLI workloads
# ----------------------------------------------------------------------
def run_cli(argv: List[str], work: str,
            trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """One cold CLI invocation through the launcher."""
    command = [sys.executable, os.path.join("perfbench", "launch.py")]
    if trace_dir:
        command += ["--trace", trace_dir]
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(command + ["--"] + argv, stdout=out,
                                stderr=err, env=environment())
        try:
            code, rss_mb, cpu_s = wait_for(proc)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        ended = time.perf_counter()
    with open(out_path, "rb") as stream:
        stdout = stream.read()
    with open(err_path, encoding="utf-8", errors="replace") as stream:
        stderr = stream.read()
    if code != 0:
        raise CheckFailed(f"{' '.join(argv[:1])} exited {code}: "
                          f"{stderr.strip()[-400:]}")
    return {"wall_s": ended - spawned,
            "setup_s": ready_time(stderr) - spawned,
            "peak_rss_mb": rss_mb,
            "cpu_s": cpu_s,
            "digest": hashlib.sha256(stdout).hexdigest(),
            "stdout": stdout.decode("utf-8")}


def _floats(pattern: str, text: str) -> List[Tuple[float, ...]]:
    return [tuple(float(group) for group in match.groups())
            for match in re.finditer(pattern, text)]


def check_figure2(text: str) -> None:
    """The paper's shape: SEER near or below LRU, bounded by the working
    set, and far below LRU somewhere (Figure 2)."""
    rows = _floats(r"ws=\s*([0-9.]+)\s+seer=\s*([0-9.]+)\s+lru=\s*([0-9.]+)",
                   text)
    if len(rows) != 6:
        raise CheckFailed(f"figure2 printed {len(rows)} rows, expected 6")
    check_shape([(ws, seer, lru) for ws, seer, lru in rows],
                [lru / seer for _, seer, lru in rows if seer > 0])


def check_population(text: str) -> None:
    means = {}
    for label in ("working set", "SEER", "LRU"):
        found = _floats(rf"(?m)^  {label}\s+([0-9.]+) MB", text)
        if not found:
            raise CheckFailed(f"population report lacks the {label} mean")
        means[label] = found[0][0]
    ratios = [ratio for (ratio,) in _floats(r"ratio=\s*([0-9.]+)", text)]
    if means["SEER"] > 0:
        ratios.append(means["LRU"] / means["SEER"])
    check_shape([(means["working set"], means["SEER"], means["LRU"])],
                ratios)


def check_shape(rows: List[Tuple[float, float, float]],
                ratios: List[float]) -> None:
    for ws, seer, lru in rows:
        if seer > 1.05 * lru:
            raise CheckFailed(f"SEER {seer} MB exceeds 1.05 x LRU {lru} MB")
        if seer > 3 * ws:
            raise CheckFailed(f"SEER {seer} MB exceeds 3 x working set "
                              f"{ws} MB")
    if not ratios or max(ratios) <= 5:
        raise CheckFailed(f"largest LRU/SEER ratio {max(ratios or [0])} "
                          f"is not above 5")


def cli_workload(name: str, argv_for: Callable[[str], List[str]],
                 check: Callable[[str], None], seed: int, seconds: float,
                 trace: bool, work: str) -> Dict[str, Any]:
    """Repeat cold invocations for *seconds*; median each metric.

    With *trace*, the untraced invocations fill half the time and one
    traced invocation follows; the difference is the tracing overhead.
    """
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as stream:
        expected = json.load(stream)[name].get(str(seed))
    budget = seconds / 2 if trace else seconds
    samples: List[Dict[str, Any]] = []
    failed = 0
    speed = HostSpeed()
    started = time.perf_counter()
    speed.sample()
    while len(samples) < MIN_INVOCATIONS or \
            time.perf_counter() - started < budget:
        invocation_dir = tempfile.mkdtemp(dir=work)
        try:
            sample = run_cli(argv_for(invocation_dir), invocation_dir)
            speed.sample()
            check(sample["stdout"])
            if expected is not None and sample["digest"] != expected:
                raise CheckFailed(f"stdout digest {sample['digest']} differs "
                                  f"from the committed {expected}")
            if samples and sample["digest"] != samples[0]["digest"]:
                raise CheckFailed("stdout differs between repeats")
        except CheckFailed as error:
            print(f"check failed: {error}", file=sys.stderr)
            failed += 1
            if failed >= 2:
                break
            continue
        finally:
            shutil.rmtree(invocation_dir, ignore_errors=True)
        samples.append(sample)
    result: Dict[str, Any] = {
        "attempted": len(samples) + failed, "failed": failed,
        "detail": {"invocations": len(samples),
                   "digest": samples[0]["digest"] if samples else None,
                   "wall_s_samples": [s["wall_s"] for s in samples],
                   "setup_s_samples": [s["setup_s"] for s in samples],
                   "cpu_s_samples": [s["cpu_s"] for s in samples],
                   **speed.detail()}}
    if not samples:
        return result
    result["metrics"] = {key: statistics.median(s[key] for s in samples)
                         for key in ("setup_s", "wall_s", "peak_rss_mb")}
    result["metrics"]["wall_ref_s"] = \
        result["metrics"]["wall_s"] * speed.scale()
    if trace:
        trace_dir = tempfile.mkdtemp(dir=work)
        traced = run_cli(argv_for(trace_dir), trace_dir, trace_dir=trace_dir)
        result["traced_wall_s"] = traced["wall_s"]
        result["trace_dir"] = trace_dir
    return result


def figure2(seed: int, seconds: float, trace: bool,
            work: str) -> Dict[str, Any]:
    return cli_workload("figure2",
                        lambda _: FIGURE2_ARGS + ["--seed", str(seed)],
                        check_figure2, seed, seconds, trace, work)


def fleet_size(seed: int) -> Tuple[int, int]:
    """Machines of population *seed* needed to reach POPULATION_RECORDS,
    and the records they bring.

    Fleet members are heavy-tailed in activity, so a fixed machine count
    made one seed's run a third longer than another's.  Member *i* of a
    population depends only on the seed and *i*, so the fleet of the
    chosen size is exactly the prefix counted here.
    """
    from repro.simulation.runner import population_grid
    from repro.workload import generate_machine_trace, resolve_profile

    machines = records = 0
    while records < POPULATION_RECORDS:
        machines += 16
        grid = population_grid(machines, seed, days=POPULATION_DAYS)
        for spec in grid[machines - 16:]:
            trace = generate_machine_trace(resolve_profile(spec.machine),
                                           seed=spec.trace_seed,
                                           days=POPULATION_DAYS)
            records += len(trace.records)
            if records >= POPULATION_RECORDS:
                return grid.index(spec) + 1, records
    return machines, records


def population(seed: int, seconds: float, trace: bool,
               work: str) -> Dict[str, Any]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    machines, records = fleet_size(seed)
    result = cli_workload(
        "population",
        lambda scratch: ["population", "--machines", str(machines),
                         "--seed", str(seed), "--days",
                         f"{POPULATION_DAYS:g}", "--jobs", "2",
                         "--checkpoint-dir",
                         os.path.join(scratch, "checkpoints"),
                         "--store", "sqlite"],
        check_population, seed, seconds, trace, work)
    result["detail"].update(machines=machines, records=records)
    return result


# ----------------------------------------------------------------------
# the daemon workload
# ----------------------------------------------------------------------
class Tenants:
    """Observer-classified traces of machines A-I and the frames that
    replay them, all built before any timing starts.

    Each machine's trace gives ``SEGMENTS`` tenants, its consecutive
    ``TENANT_EVENTS``-reference segments.  Fixed lengths make a round
    do the same ingest on every seed (the refill lane's cost grows with
    the square of a tenant's length), and 27 smaller tenants average
    out the cluster-build cost of any one trace: 9 whole 10-day traces
    made rounds of 3.1-5.6 s over seeds 1-5, and 9 tenants of 2 000
    references still varied 30% between seeds.
    """

    def __init__(self, seed: int) -> None:
        from repro.core.correlator import ObservedReference
        from repro.service.tenant import batch_hoard_fill
        from repro.simulation.live import scaled_hoard_budget
        from repro.workload import MACHINES
        from repro.workload.sizes import MEAN_FILE_SIZE

        self.expected: Dict[str, str] = {}
        self.events = 0
        self.stream: List[Tuple[str, bytes, int]] = []
        self.refill: List[Tuple[str, bytes, int]] = []
        for machine in sorted(MACHINES):
            trace, observed = observed_references(machine, seed)
            budget = scaled_hoard_budget(trace)
            for segment in range(SEGMENTS):
                name = f"{machine}{segment}"
                references = [ObservedReference(
                    seq=seq, time=r.time, pid=r.pid, action=r.action,
                    path=r.path, path2=r.path2, ppid=r.ppid)
                    for seq, r in enumerate(observed[
                        segment * TENANT_EVENTS:
                        (segment + 1) * TENANT_EVENTS], 1)]
                self.add_tenant(name, references, budget)
                self.expected[name] = canonical(batch_hoard_fill(
                    references, budget, default_size=MEAN_FILE_SIZE))

    def add_tenant(self, name: str, references: List[Any],
                   budget: int) -> None:
        """Queue one tenant's frames on both lanes."""
        from repro.service import protocol
        from repro.workload.sizes import MEAN_FILE_SIZE

        self.events += 2 * len(references)
        fill = {"type": "hoard_fill", "budget": budget,
                "default_size": MEAN_FILE_SIZE}
        for lane, tenant, batch, segments in (
                (self.stream, f"s-{name}", STREAM_BATCH,
                 day_segments(references)),
                (self.refill, f"r-{name}", REFILL_BATCH, [
                    references[start:start + REFILL_BATCH] for start
                    in range(0, len(references), REFILL_BATCH)])):
            fill_frame = protocol.encode(dict(fill, tenant=tenant))
            for segment in segments:
                for start in range(0, len(segment), batch):
                    chunk = segment[start:start + batch]
                    lane.append(("events", protocol.encode({
                        "type": "events", "tenant": tenant,
                        "records": protocol.references_to_wire(chunk)}),
                        len(chunk)))
                lane.append(("fill", fill_frame, 0))
            # The tenant's last fill is checked against the batch one.
            lane[-1] = ("final:" + name, fill_frame, 0)


def observed_references(machine: str, seed: int) -> Tuple[Any, List[Any]]:
    """A machine's trace and its first ``SEGMENTS * TENANT_EVENTS``
    observer-classified references.  A trace too short to have them is
    generated again, long enough by its own rate plus a quarter."""
    from repro.observer.observer import Observer
    from repro.simulation import simulation_control
    from repro.workload import generate_machine_trace, machine_profile

    wanted = SEGMENTS * TENANT_EVENTS
    days = DAEMON_DAYS
    while True:
        trace = generate_machine_trace(machine_profile(machine), seed=seed,
                                       days=days)
        observed: List[Any] = []
        observer = Observer(handler=observed.append,
                            control=simulation_control())
        for record in trace.records:
            observer.handle_record(record)
        if len(observed) >= wanted:
            return trace, observed[:wanted]
        days *= min(8.0, 1.25 * wanted / max(len(observed), 1))


def day_segments(references: List[Any]) -> List[List[Any]]:
    """Split at each simulated-day boundary (the daily disconnection)."""
    segments: List[List[Any]] = [[]]
    boundary = references[0].time + DAY
    for reference in references:
        while reference.time >= boundary:
            if segments[-1]:
                segments.append([])
            boundary += DAY
        segments[-1].append(reference)
    return segments


def canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


async def drive_lane(socket_path: str, frames: List[Tuple[str, bytes, int]],
                     acks: List[float], fills: List[float],
                     finals: Dict[str, bytes]) -> Tuple[float, int]:
    """One closed-loop connection: send a frame, wait for its reply.

    Returns when the lane's last reply arrived and how many replies
    were wrong (error frames, refused or duplicated events).
    """
    reader, writer = await asyncio.open_unix_connection(
        socket_path, limit=64 * 1024 * 1024)
    wrong = 0
    clock = time.perf_counter
    try:
        for kind, frame, count in frames:
            sent = clock()
            writer.write(frame)
            await writer.drain()
            line = await reader.readline()
            elapsed = clock() - sent
            if kind == "events":
                acks.append(elapsed)
                reply = json.loads(line)
                if reply.get("type") != "ok" or reply.get("accepted") != \
                        count or reply.get("duplicates") != 0:
                    wrong += 1
            else:
                fills.append(elapsed)
                if b'"type":"hoard"' not in line:
                    wrong += 1
                elif kind.startswith("final:"):
                    finals[kind] = line
        return clock(), wrong
    finally:
        writer.close()
        await writer.wait_closed()


async def drive_round(socket_path: str, tenants: Tenants
                      ) -> Dict[str, Any]:
    acks: List[float] = []
    fills: List[float] = []
    stream_finals: Dict[str, bytes] = {}
    refill_finals: Dict[str, bytes] = {}
    started = time.perf_counter()
    (stream_end, stream_wrong), (refill_end, refill_wrong) = \
        await asyncio.gather(
            drive_lane(socket_path, tenants.stream, acks, fills,
                       stream_finals),
            drive_lane(socket_path, tenants.refill, acks, fills,
                       refill_finals))
    round_s = max(stream_end, refill_end) - started
    reader, writer = await asyncio.open_unix_connection(
        socket_path, limit=64 * 1024 * 1024)
    try:
        writer.write(json.dumps({"type": "stats", "tenant": "s-A"}).encode()
                     + b"\n")
        await writer.drain()
        stats = json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()
    return {"round_s": round_s, "acks": acks, "fills": fills,
            "finals": [stream_finals, refill_finals],
            "wrong": stream_wrong + refill_wrong,
            "requests": len(tenants.stream) + len(tenants.refill),
            "ingested": stats.get("service", {}).get("events_ingested")}


def daemon_round(tenants: Tenants, work: str,
                 trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """Spawn a fresh daemon, replay every tenant, stop it."""
    socket_path = os.path.join(work, "daemon.sock")
    if trace_dir:
        command = [sys.executable, os.path.join("perfbench", "launch.py"),
                   "--trace", trace_dir, "--"]
    else:
        command = [sys.executable, "-m", "repro"]
    command += ["service", "--unix-socket", socket_path]
    spawned = time.perf_counter()
    proc = subprocess.Popen(command, stderr=subprocess.PIPE,
                            stdout=subprocess.DEVNULL, env=environment())
    assert proc.stderr is not None
    try:
        while b"listening" not in (line := proc.stderr.readline()):
            if not line:
                raise CheckFailed("the daemon exited before listening")
        listening = time.perf_counter()
        outcome = asyncio.run(drive_round(socket_path, tenants))
    except (ConnectionError, asyncio.IncompleteReadError, ValueError) as error:
        raise CheckFailed(f"the daemon broke a connection: {error!r}")
    finally:
        proc.send_signal(signal.SIGTERM)
        code, rss_mb, cpu_s = wait_for(proc)
        proc.stderr.close()
    if code != 0:
        raise CheckFailed(f"the daemon exited {code}")
    outcome.update(setup_s=listening - spawned, peak_rss_mb=rss_mb,
                   cpu_s=cpu_s)
    return outcome


def check_round(outcome: Dict[str, Any], tenants: Tenants) -> int:
    """Count the round's wrong answers (0 when all is well)."""
    wrong = outcome["wrong"]
    if outcome["ingested"] != tenants.events:
        print(f"check failed: daemon ingested {outcome['ingested']} of "
              f"{tenants.events} events", file=sys.stderr)
        wrong += 1
    for finals in outcome["finals"]:
        for machine, expected in tenants.expected.items():
            line = finals.get("final:" + machine)
            online = canonical(json.loads(line)["hoard"]) if line else None
            if online != expected:
                print(f"check failed: online fill of {machine} differs "
                      f"from the batch replay", file=sys.stderr)
                wrong += 1
    return wrong


def daemon_mixed(seed: int, seconds: float, trace: bool,
                 work: str) -> Dict[str, Any]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tenants = Tenants(seed)
    budget = seconds / 2 if trace else seconds
    rounds: List[Dict[str, Any]] = []
    failed = attempted = 0
    speed = HostSpeed()
    started = time.perf_counter()
    speed.sample()
    while len(rounds) < MIN_INVOCATIONS or \
            time.perf_counter() - started < budget:
        outcome = daemon_round(tenants, work)
        speed.sample()
        wrong = check_round(outcome, tenants)
        attempted += outcome["requests"]
        failed += wrong
        rounds.append(outcome)
    acks = [value for r in rounds for value in r["acks"]]
    fills = [value for r in rounds for value in r["fills"]]
    round_s = statistics.median(r["round_s"] for r in rounds)
    result: Dict[str, Any] = {
        "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "wall_s": round_s,
            "wall_ref_s": round_s * speed.scale(),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in rounds)},
        "detail": {
            "rounds": len(rounds),
            "events_per_round": tenants.events,
            "events_per_s": tenants.events / round_s,
            "ack_p50_ms": quantile(acks, 0.50) * 1000,
            "ack_p99_ms": quantile(acks, 0.99) * 1000,
            "ack_samples": len(acks),
            "fill_p50_ms": quantile(fills, 0.50) * 1000,
            "fill_p99_ms": quantile(fills, 0.99) * 1000,
            "fill_samples": len(fills),
            "failed_share": failed / attempted,
            "wall_s_samples": [r["round_s"] for r in rounds],
            "setup_s_samples": [r["setup_s"] for r in rounds],
            "cpu_s_samples": [r["cpu_s"] for r in rounds],
            **speed.detail()}}
    if trace:
        trace_dir = tempfile.mkdtemp(dir=work)
        traced = daemon_round(tenants, work, trace_dir=trace_dir)
        result["failed"] += check_round(traced, tenants)
        result["attempted"] += traced["requests"]
        result["traced_wall_s"] = traced["round_s"]
        result["trace_dir"] = trace_dir
    return result


WORKLOADS = {"figure2": figure2, "population": population,
             "daemon_mixed": daemon_mixed}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def per_layer(result: Dict[str, Any]) -> Dict[str, Any]:
    sys.path.insert(0, HERE)
    import spans
    rolled = spans.roll_up(result["trace_dir"])
    metrics = rolled["metrics"]
    untraced = result["metrics"]["wall_s"]
    metrics["trace.wall_s"] = result["traced_wall_s"]
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = result["traced_wall_s"] - untraced
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced
    result["detail"]["trace_samples"] = rolled["samples"]
    result["detail"]["self_s_by_span"] = rolled["self_s"]
    units = dict(spans.PER_LAYER)
    return {name: {"value": metrics[name], "unit": units[name]}
            for name, _ in spans.PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops and reaps the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        print("perfbench: no program to measure (src/repro is missing); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        probe_start = host_probe()
        try:
            result = WORKLOADS[args.workload](args.seed, args.seconds,
                                              bool(args.trace), work)
        except CheckFailed as error:
            print(f"check failed: {error}", file=sys.stderr)
            return 1
        probe_end = host_probe()
        detail = result["detail"]
        detail.update(workload=args.workload, seed=args.seed,
                      host_probe_start_s=probe_start,
                      host_probe_end_s=probe_end)
        if "metrics" not in result:
            print(json.dumps({"correct": False,
                              "attempted": result["attempted"],
                              "failed": result["failed"], "metrics": {}}))
            return 1
        if args.trace:
            metrics = per_layer(result)
        else:
            metrics = {name: {"value": result["metrics"][name], "unit": unit}
                       for name, unit in END_TO_END.items()}
        correct = result["failed"] == 0
        detail.update({name: result["metrics"][name]
                       for name in list(END_TO_END) + ["wall_s"]})
        for name, entry in metrics.items():
            print(f"{args.workload} {name} = {entry['value']:.6g} "
                  f"{entry['unit']}")
        for name in ("wall_s", "host_unit_s", "events_per_s", "ack_p50_ms",
                     "ack_p99_ms", "fill_p50_ms", "fill_p99_ms",
                     "failed_share"):
            if name in detail:
                print(f"{args.workload} {name} = {detail[name]:.6g} "
                      f"(ungated)")
        print("detail " + json.dumps(detail, sort_keys=True))
        print(json.dumps({"correct": correct,
                          "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
