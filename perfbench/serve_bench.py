"""The ``serve_open_loop`` workload: a live server under open-loop load.

A ``repro serve`` subprocess (started through ``serve_launcher.py`` on a
fresh cache directory) is driven at a constant rate over two keep-alive
connections.  Half the requests are fresh placements never asked before
(solved in one- or two-lane accelerated batches), half repeat a small
hot set that was answered once before the window (served from the
coalescer's memo).  Each latency is measured from the request's
scheduled send time, so a stall is charged to every request behind it.
The window runs in short segments with a host probe between them, and
set-up times and the part of each latency above the coalesce window are
host-normalized by the mean of every probe of the run (see
:func:`normalized_ms`).
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import random
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import common

#: Constant request rate.  Two connections carry at most
#: 2 / per-request latency; the closed-loop probe of the same request
#: mix measures that ceiling at about 35-40 rps on a 2-CPU host, and
#: this rate stays below half of it.
RATE_RPS = 16.0
CONNECTIONS = 2
PLATFORM = "skx2s"
DEVICE = "cxl-a"
#: Workloads fresh placements are drawn from (see :func:`fresh_pool`),
#: and the DRAM-fraction strata their rounds cycle through.  A fixed
#: pool keeps the solve work of a run the same on every seed.
FRESH_POOL = 24
FRACTION_STRATA = 4
#: Hot-set workloads; each is asked DRAM-only and CXL-A-only, so the
#: pair also gives a simulated slowdown to score CAMP's prediction on.
HOT_WORKLOADS = ("605.mcf", "603.bwaves", "pr-kron", "bfs-twitter",
                 "xsbench", "redis-ycsb", "llama-7b", "resnet50")
#: Requests of the closed-loop ceiling probe before the window, drawn
#: from the same mix as the window.
PROBE_REQUESTS = 40
#: Fresh answers re-solved locally and compared per run.
CHECKED_FRESH = 12
#: Requests per open-loop segment (one second at ``RATE_RPS``).  A host
#: probe runs between segments, on an idle server: the host's speed
#: flips within a second, so the run's many probes are averaged.
SEGMENT_REQUESTS = 16
#: The server's coalesce window: a timer, which host speed does not
#: scale.  Fixed here so every commit is normalized alike.
TIMER_FLOOR_MS = 20.0
#: Generator lateness (send time minus scheduled time) above this at
#: p99 means the connections backed up: the run is rejected.
BACKLOG_LIMIT_MS = 500.0
STOP_TIMEOUT_S = 30.0

_PROBE = re.compile(r"PERFBENCH probe (\S+)")
_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


def _slow_only() -> Dict[str, Any]:
    return {"dram_fraction": 0.0, "device": DEVICE, "hotness_bias": 0.0}


def hot_set() -> List[Dict[str, Any]]:
    bodies = []
    for name in HOT_WORKLOADS:
        bodies.append({"kind": "query", "workload": name})
        bodies.append({"kind": "query", "workload": name,
                       "placement": _slow_only()})
    return bodies


def fresh_pool(names: List[str]) -> List[str]:
    """The fixed workloads fresh placements are drawn from: every
    ``len(names) // FRESH_POOL``-th name, the same on every seed."""
    step = max(1, len(names) // FRESH_POOL)
    return names[::step][:FRESH_POOL]


def request_plan(seed: int, count: int, names: List[str]
                 ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """(ceiling-probe bodies, window bodies), all from ``seed``.

    Window bodies carry ``_hot`` (index into the hot set) or ``_fresh``
    markers, which are stripped before sending.  Every run has the same
    make-up, so seeds move only placements and order: each block of four
    requests holds two fresh and two hot ones, and each list visits the
    fresh pool in shuffled rounds, with one DRAM-fraction stratum per
    round, and the hot set in shuffled rounds.  Fresh placements never
    repeat within a run.
    """
    rng = random.Random(f"perfbench:serve:{seed}")
    pool = fresh_pool(names)
    hot = hot_set()
    seen = set()

    def bodies(total: int) -> List[Dict[str, Any]]:
        fresh_queue: List[Tuple[str, int]] = []
        hot_queue: List[int] = []
        rounds = 0

        def fresh() -> Dict[str, Any]:
            nonlocal rounds
            if not fresh_queue:
                fresh_queue.extend((name, rounds % FRACTION_STRATA)
                                   for name in rng.sample(pool, len(pool)))
                rounds += 1
            name, stratum = fresh_queue.pop()
            while True:
                fraction = round(0.05 + 0.9 * (stratum + rng.random())
                                 / FRACTION_STRATA, 6)
                if (name, fraction) not in seen:
                    seen.add((name, fraction))
                    return {"kind": "query", "workload": name,
                            "placement": {"dram_fraction": fraction,
                                          "device": DEVICE,
                                          "hotness_bias": 0.0},
                            "_fresh": True}

        def repeat() -> Dict[str, Any]:
            if not hot_queue:
                hot_queue.extend(rng.sample(range(len(hot)), len(hot)))
            return dict(hot[hot_queue.pop()], _hot=True)

        out: List[Dict[str, Any]] = []
        while len(out) < total:
            block = [True, True, False, False]
            rng.shuffle(block)
            out += [fresh() if is_fresh else repeat() for is_fresh in block]
        return out[:total]

    probe = bodies(PROBE_REQUESTS)
    return probe, bodies(count)


def normalized_ms(wall_ms: float, probe_s: float) -> float:
    """A request latency with its work rescaled to the nominal host.

    The first ``TIMER_FLOOR_MS`` of a request is the coalesce window's
    timer; the rest is host work (HTTP, coalescer, solve, serde) and
    moves with the shared host's speed, so only that part is scaled by
    :func:`common.normalize`.
    """
    floor = min(wall_ms, TIMER_FLOOR_MS)
    return floor + common.normalize(wall_ms - floor, probe_s)


def _wire(body: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in body.items()
            if not key.startswith("_")}


class Server:
    """One launcher subprocess running ``repro serve``."""

    def __init__(self, work_dir: pathlib.Path, index: int,
                 probes: List[float],
                 trace_out: Optional[pathlib.Path] = None):
        self.cache_dir = work_dir / f"serve-cache-{index}"
        self.cache_dir.mkdir()
        if any(self.cache_dir.iterdir()):
            raise RuntimeError(f"cache dir {self.cache_dir} not empty")
        env = common.subprocess_env()
        env["REPRO_CACHE_DIR"] = str(self.cache_dir)
        command = [sys.executable, str(common.BENCH_DIR /
                                       "serve_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", "serve", "--platform", PLATFORM, "--device",
                    DEVICE, "--host", "127.0.0.1", "--port", "0",
                    "--cache-dir", str(self.cache_dir)]
        self._stderr = open(work_dir / f"serve-{index}.stderr", "wb")
        probe_before = common.host_probe_s()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr,
            env=env, cwd=str(common.ROOT), text=True)
        probe_line = self.proc.stdout.readline()
        line = self.proc.stdout.readline()
        probe = _PROBE.match(probe_line)
        match = _LISTENING.search(line)
        if probe is None or match is None:
            self.stop()
            raise RuntimeError(f"server did not start: "
                               f"{probe_line + line!r}")
        self.raw_setup_s = time.perf_counter() - start
        probes += [probe_before, float(probe.group(1)),
                   common.host_probe_s()]
        self.host, self.port = match.group(1), int(match.group(2))

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited before answering")
        return line

    def toggle_tracing(self) -> str:
        self.proc.send_signal(signal.SIGUSR1)
        return self._line().strip()

    def peak_rss_mib(self) -> float:
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in process status")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return code


class Client:
    """Two keep-alive connections, each carrying one request at a time."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.streams: List[Any] = []

    async def open(self) -> None:
        for _ in range(CONNECTIONS):
            self.streams.append(await asyncio.open_connection(
                self.host, self.port))

    async def close(self) -> None:
        for _, writer in self.streams:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def send(self, connection: int, body: Dict[str, Any]
                   ) -> Dict[str, Any]:
        from repro.serve.protocol import (encode_http_request,
                                          read_http_response)
        reader, writer = self.streams[connection]
        writer.write(encode_http_request("POST", "/v1/predict",
                                         _wire(body)))
        await writer.drain()
        _status, payload = await read_http_response(reader)
        return payload

    async def closed_loop(self, bodies: List[Dict[str, Any]]
                          ) -> List[Dict[str, Any]]:
        """Send ``bodies`` as fast as two waiting callers can."""
        answers: List[Any] = [None] * len(bodies)

        async def caller(connection: int) -> None:
            for index in range(connection, len(bodies), CONNECTIONS):
                answers[index] = await self.send(connection,
                                                 bodies[index])
        await asyncio.gather(*(caller(c) for c in range(CONNECTIONS)))
        return answers

    async def open_loop(self, bodies: List[Dict[str, Any]],
                        rate_rps: float) -> List[Dict[str, Any]]:
        """Send on a fixed schedule; request i goes to connection i % 2.

        Returns per request: the answer, its lateness (send minus
        scheduled time) and latency (answer minus scheduled time), ms.
        """
        queues = [asyncio.Queue() for _ in range(CONNECTIONS)]
        records: List[Any] = [None] * len(bodies)

        async def connection_worker(connection: int) -> None:
            while True:
                item = await queues[connection].get()
                if item is None:
                    return
                index, scheduled = item
                sent = time.perf_counter()
                try:
                    answer = await self.send(connection, bodies[index])
                except (ConnectionError, OSError, ValueError,
                        asyncio.IncompleteReadError) as exc:
                    answer = {"status": "transport_error",
                              "error": str(exc)}
                done = time.perf_counter()
                records[index] = {"answer": answer,
                                  "late_ms": (sent - scheduled) * 1e3,
                                  "latency_ms": (done - scheduled) * 1e3,
                                  "done": done}

        workers = [asyncio.ensure_future(connection_worker(c))
                   for c in range(CONNECTIONS)]
        start = time.perf_counter()
        for index in range(len(bodies)):
            scheduled = start + index / rate_rps
            delay = scheduled - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queues[index % CONNECTIONS].put_nowait((index, scheduled))
        for queue in queues:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        for record in records:
            record["elapsed_s"] = record.pop("done") - start
        return records

    async def segmented(self, bodies: List[Dict[str, Any]],
                        probes: List[float]) -> List[Dict[str, Any]]:
        """:meth:`open_loop` in segments of ``SEGMENT_REQUESTS`` with a
        host probe after each; ``elapsed_s`` counts only the time spent
        in segments."""
        records: List[Dict[str, Any]] = []
        elapsed = 0.0
        for first in range(0, len(bodies), SEGMENT_REQUESTS):
            segment = await self.open_loop(
                bodies[first:first + SEGMENT_REQUESTS], RATE_RPS)
            probes.append(common.host_probe_s())
            for record in segment:
                record["elapsed_s"] += elapsed
            elapsed = max(record["elapsed_s"] for record in segment)
            records += segment
        return records

    async def stats(self) -> Dict[str, Any]:
        from repro.serve.protocol import (encode_http_request,
                                          read_http_response)
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(encode_http_request("GET", "/stats",
                                         keep_alive=False))
        await writer.drain()
        _status, payload = await read_http_response(reader)
        writer.close()
        return payload.get("stats", {})


def _signature(answer: Dict[str, Any]) -> Dict[str, Any]:
    result = answer["result"]
    return {"kind": "signature", "counters": result["counters"],
            "platform_family": result["platform"]["family"],
            "frequency_ghz": result["platform"]["frequency_ghz"]}


def _check_fresh(bodies, records, limit: int) -> List[str]:
    """Sampled fresh answers against a local solve of the same query."""
    from repro.runtime import serde
    from repro.uarch.config import get_platform
    from repro.uarch.machine import ACCELERATED_RELATIVE_TOLERANCE, Machine
    from repro.workloads.suites import get_workload
    machine = Machine(get_platform(PLATFORM))
    fresh = [index for index, body in enumerate(bodies)
             if body.get("_fresh")
             and records[index]["answer"].get("status") == "ok"]
    step = max(1, len(fresh) // limit)
    failures = []
    for index in fresh[::step][:limit]:
        body = bodies[index]
        local = serde.run_result_to_dict(machine.run(
            get_workload(body["workload"]),
            serde.placement_from_dict(dict(body["placement"]))))
        served = records[index]["answer"]["result"]
        for field in ("runtime_s", "observed_read_ns", "tier_read_ns",
                      "rfo_ns", "dram_latency_ns", "slow_latency_ns",
                      "dram_gbps", "slow_gbps"):
            want, got = local[field], served[field]
            if abs(got - want) > ACCELERATED_RELATIVE_TOLERANCE * abs(want):
                failures.append(f"fresh {body['workload']} "
                                f"{body['placement']['dram_fraction']}: "
                                f"{field} {got!r} != {want!r}")
    return failures


def _phase_summary(bodies, records, hot_answers, probe_s: float
                   ) -> Dict[str, Any]:
    def ok(record) -> bool:
        return record["answer"].get("status") == "ok"

    for record in records:
        record["normalized_ms"] = normalized_ms(record["latency_ms"],
                                                probe_s)
    latencies = [r["normalized_ms"] for r in records if ok(r)]
    fresh_p50 = common.median([r["normalized_ms"] for b, r in
                               zip(bodies, records) if b.get("_fresh")
                               and ok(r)])
    repeat_p50 = common.median([r["normalized_ms"] for b, r in
                                zip(bodies, records) if b.get("_hot")
                                and ok(r)])
    failures = [f"request {i}: {r['answer'].get('status')}"
                for i, r in enumerate(records)
                if r["answer"].get("status") != "ok"]
    hot = hot_set()
    for body, record in zip(bodies, records):
        if body.get("_hot") and record["answer"].get("status") == "ok":
            expected = hot_answers[hot.index(_wire(body))]
            if record["answer"]["result"] != expected["result"]:
                failures.append(f"repeat {body['workload']} changed")
    late = [r["late_ms"] for r in records]
    if common.p99(late) > BACKLOG_LIMIT_MS:
        failures.append(f"generator ran {common.p99(late):.0f} ms late "
                        f"at p99: the connections backed up")
    return {
        "latencies_ms": latencies, "failures": failures,
        "wall_mean_ms": common.mean([r["latency_ms"] for r in records
                                     if ok(r)]),
        "attempted": len(records), "ok": len(latencies),
        "throughput": len(latencies) / max(r["elapsed_s"]
                                           for r in records),
        # The two classes' medians, weighted equally: each is steady,
        # while one median over the bimodal mix sits between the modes.
        "latency": (fresh_p50 + repeat_p50) / 2,
        "fresh_p50": fresh_p50, "repeat_p50": repeat_p50,
        "late_p99": common.p99(late),
    }


def _stats_delta(before: Dict[str, Any], after: Dict[str, Any]
                 ) -> Dict[str, float]:
    delta = {name: after.get(name, 0) - before.get(name, 0)
             for name in ("lanes_solved", "batches_solved", "memo_hits",
                          "coalesced_twins", "shed", "deadline_expired")}
    delta["coalesce_factor"] = (delta["lanes_solved"] /
                                delta["batches_solved"]
                                if delta["batches_solved"] else 0.0)
    return delta


async def _exercise(server: Server, seed: int, seconds: float,
                   traced: bool, probes: List[float]) -> Dict[str, Any]:
    from repro.analysis.stats import accuracy_summary
    from repro.runtime import serde
    from repro.uarch.machine import slowdown
    from repro.workloads.suites import named_workloads

    names = sorted(named_workloads())
    count = max(1, int(round(RATE_RPS * seconds)))
    probe, window = request_plan(seed, count, names)
    client = Client(server.host, server.port)
    await client.open()
    try:
        if traced:
            server.toggle_tracing()   # off: setup was recorded, not this
        # Untimed: answer the hot set once (memoized from then on),
        # probe the two-connection ceiling, and score CAMP on the pairs.
        hot_answers = await client.closed_loop(hot_set())
        probe_start = time.perf_counter()
        probe_answers = await client.closed_loop(probe)
        ceiling_rps = len(probe) / (time.perf_counter() - probe_start)
        dram = hot_answers[0::2]
        signatures = await client.closed_loop(
            [_signature(answer) for answer in dram])
        actual = [slowdown(serde.run_result_from_dict(d["result"]),
                           serde.run_result_from_dict(s["result"]))
                  for d, s in zip(dram, hot_answers[1::2])]
        accuracy = accuracy_summary(
            [answer["prediction"]["total"] for answer in signatures],
            actual).within_10pct
        setup_failures = [
            f"priming: {answer.get('status')}"
            for answer in hot_answers + probe_answers + signatures
            if answer.get("status") != "ok"]

        windows = {}
        halves = ([("untraced", window[:count // 2]),
                   ("traced", window[count // 2:])] if traced
                  else [("run", window)])
        for name, bodies in halves:
            if name == "traced":
                server.toggle_tracing()
            before = await client.stats()
            records = await client.segmented(bodies, probes)
            after = await client.stats()
            windows[name] = (bodies, records, _stats_delta(before, after))
        peak_rss = server.peak_rss_mib()
    finally:
        await client.close()
    phases = {}
    for name, (bodies, records, delta) in windows.items():
        summary = _phase_summary(bodies, records, hot_answers,
                                 common.mean(probes))
        summary["server"] = delta
        summary["failures"] += _check_fresh(bodies, records, CHECKED_FRESH)
        phases[name] = summary
    return {"phases": phases, "accuracy": accuracy,
            "ceiling_rps": ceiling_rps, "peak_rss_mib": peak_rss,
            "setup_failures": setup_failures}


def run(seed: int, seconds: float, trace: bool,
        work_dir: pathlib.Path, trace_dir: pathlib.Path):
    """Run the workload; returns (correct, attempted, failed, values,
    report lines)."""
    setups, probes = [], []
    launches = 1 if trace else common.SETUP_REPEATS
    trace_out = (trace_dir / f"serve_open_loop-seed{seed}.json"
                 if trace else None)
    for index in range(launches):
        server = Server(work_dir, index, probes,
                        trace_out if index == launches - 1 else None)
        setups.append(server.raw_setup_s)
        if index < launches - 1:
            server.stop()
    try:
        measured = asyncio.run(_exercise(server, seed, seconds, trace,
                                         probes))
    finally:
        code = server.stop()
    failures = list(measured["setup_failures"])
    if code != 0:
        failures.append(f"server exited with {code}")
    phases = measured["phases"]
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["attempted"] - p["ok"] for p in phases.values())
    for phase in phases.values():
        failures += phase["failures"]
    failed = max(failed, 1 if failures else 0)
    lines = [f"rate {RATE_RPS:g} rps open loop over {CONNECTIONS} "
             f"connections; ceiling probe {measured['ceiling_rps']:.1f} rps"]
    if RATE_RPS > measured["ceiling_rps"] / 2:
        lines.append("WARNING: the rate exceeds half the measured "
                     "two-connection ceiling")
    lines += [f"FAIL {failure}" for failure in failures[:20]]

    if not trace:
        phase = phases["run"]
        samples = phase["latencies_ms"]
        lines.append(f"{len(samples)} ok requests; normalized: fresh "
                     f"p50 {phase['fresh_p50']:.2f} ms, repeat p50 "
                     f"{phase['repeat_p50']:.2f} ms, tail (rank "
                     f"{len(samples) - 10} of {len(samples)}) "
                     f"{common.tail(samples, float('nan')):.2f} ms; "
                     f"wall mean {phase['wall_mean_ms']:.2f} ms")
        lines.append(f"set-ups " + ", ".join(f"{s:.2f}" for s in setups)
                     + f" s wall; mean of {len(probes)} host probes "
                     f"{1e3 * common.mean(probes):.3f} ms")
        values = {
            "setup_s": common.normalize(common.median(setups),
                                        common.mean(probes)),
            "throughput_per_s": phase["throughput"],
            "latency_ms": phase["latency"],
            "peak_rss_mib": measured["peak_rss_mib"],
            "accuracy_within_10pct": measured["accuracy"],
        }
        return not failures, attempted, failed, values, lines

    summary = json.loads(trace_out.read_text())
    phase = phases["traced"]
    requests = max(1, phase["attempted"])
    values = {name: 0.0 for name in common.PER_LAYER_UNITS}
    for span, metric in common.SPAN_METRICS.items():
        values[metric] = summary["layers"].get(span, {}).get(
            "self_s", 0.0) / requests
    counts = summary["counts"]
    for name in ("machine.lanes", "machine.outer_iterations",
                 "machine.nonconverged", "pmu.emit_counters_calls"):
        values[name] = counts.get(name, 0)
    for name, value in phase["server"].items():
        values[f"serve.{name}"] = value
    values.update({
        "setup.import_s": summary["import_s"],
        "calibration.calibrate_s": summary["calibrate_s"],
        "machine.batch_width_p50": common.median(summary["batch_widths"]),
        "serve.tail_ms": common.tail(phase["latencies_ms"], 0.0),
        "serve.fresh_p50_ms": phase["fresh_p50"],
        "serve.repeat_p50_ms": phase["repeat_p50"],
        "loadgen.late_p99_ms": phase["late_p99"],
        "loadgen.ceiling_rps": measured["ceiling_rps"],
        "trace.overhead_ms": (phase["latency"] -
                              phases["untraced"]["latency"]),
    })
    lines += common.layer_lines(summary["layers"], requests, "request")
    return not failures, attempted, failed, values, lines
