"""Client side of the epochd benchmark: rounds, wire framing, reply
checks, post-run checks and metrics. perfbench/run.py is the entry
point; it puts the checkout's src/ on sys.path before importing this.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import queue
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
from time import clock_gettime, perf_counter

from epochd import coordination, guidebook, obligations, sexpr, wal
from epochd.sexpr import Integer, SList, String, Symbol

import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SETUPS = 5            # set-up samples per run, topped up by set-up-only launches
LAUNCH_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 60
STOP_TIMEOUT_S = 30

# name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "commit_p50_ms": "ms",
    "commit_tail_ms": "ms",
    "check_p50_ms": "ms",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "wal_bytes_per_commit": "B",
    "peak_rss_mb": "MB",
    "ok_share": "fraction",
}
# The evidence gate runs this in place of a test suite, then hashes the
# feature's test files itself.
RUNNER = ("true", "{test_paths}")


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", "_ms_per_req")):
        return "ms"
    if name.endswith(("_kb", "_kb_per_req")):
        return "KB"
    if name.endswith("bytes_per_save"):
        return "B"
    if name.endswith("_share"):
        return "fraction"
    return "count"


# ------------------------------------------------------------ wire

_OUTSIDE = re.compile(rb'[()"]')
_INSIDE = re.compile(rb'[\\"]')


class Connection:
    """One client connection; request() returns the reply text and the
    send-to-reply latency in seconds."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, text: str):
        data = text.encode("utf-8") + b"\n"
        started = perf_counter()
        self.sock.sendall(data)
        reply = self._read_form()
        return reply, perf_counter() - started

    def _recv(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buf += chunk

    def _read_form(self) -> str:
        """Frame one reply: a top-level list, balanced outside strings.
        Reply strings may hold newlines, so lines do not delimit."""
        while not self.buf.lstrip():
            self._recv()
        start = len(self.buf) - len(self.buf.lstrip())
        if self.buf[start:start + 1] != b"(":
            raise ConnectionError(f"reply does not start a list: {self.buf[:60]!r}")
        pos, depth, in_string = start, 0, False
        while True:
            pattern = _INSIDE if in_string else _OUTSIDE
            m = pattern.search(self.buf, pos)
            if m is None:
                pos = len(self.buf)
                self._recv()
                continue
            ch = m.group()
            pos = m.end()
            if in_string:
                if ch == b"\\":
                    while pos >= len(self.buf):
                        self._recv()
                    pos += 1
                else:
                    in_string = False
            elif ch == b'"':
                in_string = True
            elif ch == b"(":
                depth += 1
            else:
                depth -= 1
                if depth == 0:
                    reply, self.buf = self.buf[start:pos], self.buf[pos:]
                    return reply.decode("utf-8")

    def close(self):
        self.sock.close()


class Server:
    """The daemon process of one round."""
    def __init__(self, round_dir: str, trace: bool, hash_seed: int):
        self.round_dir = round_dir
        self.spans_path = os.path.join(round_dir, "spans.json")
        self.lines: queue.Queue = queue.Queue()
        self.conn = None
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # Set and dict iteration order in the daemon follows the run's seed.
        env["PYTHONHASHSEED"] = str(hash_seed)
        self.log = open(os.path.join(round_dir, "server.log"), "wb")
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             os.path.join(round_dir, "epochd.conf"), "1" if trace else "0", self.spans_path],
            cwd=round_dir, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log)
        # Linux process CPU-time clock of the daemon (CPUCLOCK_SCHED on
        # the pid): every thread's run time, read in nanoseconds from
        # here. It leaves out time the daemon waits for a CPU, so a
        # busy neighbour or host does not show in it.
        self.cpu_clock = (~self.proc.pid << 3) | 2
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.put(line.decode("utf-8", "replace").strip())
        self.lines.put(None)

    def cpu(self) -> float:
        """CPU seconds the daemon has used since it was launched."""
        return clock_gettime(self.cpu_clock)

    def connect(self) -> tuple:
        """Wait for the port, connect, ping; returns set-up seconds as
        (daemon CPU, wall clock) from launch to the first reply."""
        try:
            line = self.lines.get(timeout=LAUNCH_TIMEOUT_S)
        except queue.Empty:
            line = None
        if not line or not line.startswith("PORT "):
            raise RuntimeError(f"daemon did not start: {self._log_tail()}")
        self.conn = Connection(int(line.split()[1]))
        reply, _ = self.conn.request("(ping)")
        setup = (self.cpu(), perf_counter() - self.started)
        if reply != "(ok pong)":
            raise RuntimeError(f"unexpected ping reply {reply!r}")
        return setup

    def stop(self) -> dict:
        """Close the connection and stdin, wait for exit, return the
        daemon's exit report. The process is killed if it lingers."""
        try:
            if self.conn is not None:
                self.conn.close()
            self.proc.stdin.close()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
            self.reader.join(timeout=STOP_TIMEOUT_S)
            report = None
            while True:
                line = self.lines.get_nowait() if not self.lines.empty() else None
                if line is None:
                    break
                if line.startswith("{"):
                    report = json.loads(line)
            if self.proc.returncode != 0 or report is None:
                raise RuntimeError(f"daemon exited badly ({self.proc.returncode}): "
                                   f"{self._log_tail()}")
            return report
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()

    def _log_tail(self) -> str:
        self.log.flush()
        with open(os.path.join(self.round_dir, "server.log"), "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")


# ---------------------------------------------------------- replies


def _name(node):
    if isinstance(node, Symbol):
        return node.text
    if isinstance(node, SList) and node.items and isinstance(node[0], Symbol):
        return node[0].text
    return None


def _violation_ids(form) -> set:
    """Obligation ids of every (violation ID ...) row under form."""
    out = set()
    stack = [form]
    while stack:
        node = stack.pop()
        if isinstance(node, SList):
            if _name(node) == "violation" and len(node) > 1:
                out.add(_name(node[1]))
            stack.extend(node.items)
    return out


def check_reply(expect: tuple, text: str):
    """None when the reply has the expected class, else the reason."""
    try:
        return _check_form(expect, sexpr.parse(text), text)
    except sexpr.SexprError as e:
        return f"unparseable reply: {e}"
    except (IndexError, AttributeError, TypeError):
        return f"malformed reply {text[:200]!r}"


def _check_form(expect: tuple, form, text: str):
    status = _name(form[0]) if len(form) else None
    if status == "err":
        code = _name(form[1]) if len(form) > 1 else None
        if expect[0] == "rejected" and code == "rejected":
            return None if expect[1] in _violation_ids(form) else \
                f"rejection does not name {expect[1]}"
        if expect[0] == "refused" and code == "refused":
            return None
        return f"unexpected error reply {text[:200]!r}"
    if status != "ok" or len(form) < 2:
        return f"malformed reply {text[:200]!r}"
    payload = form[1]
    kind = expect[0]
    got = _name(payload)
    if kind == "committed":
        index = payload[1][1].value if got == "committed" else None
        return None if index == expect[1] else f"expected commit {expect[1]}, got {text[:200]!r}"
    if kind in ("claimed", "recorded"):
        return None if got == kind and _name(payload[1]) == expect[1] else \
            f"expected {kind} {expect[1]}, got {text[:200]!r}"
    if kind == "evidence":
        ok = got == "evidence" and _name(payload[1]) == expect[1] and payload[2][1].text == expect[2]
        return None if ok else f"expected evidence {expect[1]}, got {text[:200]!r}"
    if kind in ("pass", "fail"):
        verdict = _name(payload[1]) if got == "verdict" else None
        if verdict != kind:
            return f"expected verdict {kind}, got {text[:200]!r}"
        if kind == "fail" and expect[1] not in _violation_ids(payload):
            return f"verdict does not name {expect[1]}"
        return None
    if kind == "safe":
        return None if got == "safe" else f"expected safe, got {text[:200]!r}"
    if kind == "over":
        entries = tuple(n.value for n in payload[1].items[1:]) if got == "over-constrained" else None
        return None if entries == expect[1] else f"expected over-constrained {expect[1]}"
    if got != expect[1]:
        return f"expected ({expect[1]} ...), got {text[:200]!r}"
    if len(expect) > 2 and payload[1].value != expect[2]:
        return f"expected {expect[2]} obligations, got {text[:200]!r}"
    return None


ACCEPTING = ("committed", "claimed", "evidence", "recorded")


# ----------------------------------------------------------- rounds


def dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def write_config(round_dir: str) -> None:
    def entry(key, *values):
        return SList([Symbol(key)] + [v if not isinstance(v, str) else String(v) for v in values])

    form = SList([
        Symbol("epochd-config"),
        entry("artifact", os.path.join(round_dir, wl.ARTIFACT_PATH)),
        entry("wal-dir", os.path.join(round_dir, wl.WAL_DIR)),
        entry("friction", os.path.join(round_dir, wl.FRICTION_PATH)),
        entry("listen", "127.0.0.1", Integer(0)),
        entry("runner", *RUNNER),
    ])
    with open(os.path.join(round_dir, "epochd.conf"), "w", encoding="utf-8") as fh:
        fh.write(sexpr.print_canonical(form) + "\n")


class Run:
    """Template directory and round bookkeeping of one benchmark run."""
    def __init__(self, workload, seed: int, work_dir: str):
        self.workload = workload
        self.hash_seed = seed % (1 << 32)
        self.work = work_dir
        self.template = os.path.join(work_dir, "template")
        self.rounds = 0
        for rel, text in workload.files.items():
            path = os.path.join(self.template, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        self.prebuilt = workload.prebuild(self.template) if workload.prebuild else 0
        art = workload.artifact
        books = guidebook.load_guidebooks(art.guidebook_imports,
                                          base_dir=os.path.join(self.template, "project"))
        self.obligations = len(guidebook.effective_obligations(art.obligations, books))
        friction = os.path.join(self.template, wl.FRICTION_PATH)
        self.seeded_rejections = _rejections(friction) if os.path.exists(friction) else 0

    def fresh_dir(self) -> str:
        self.rounds += 1
        path = os.path.join(self.work, f"round-{self.rounds}")
        shutil.copytree(self.template, path)
        write_config(path)
        return path

    def setup_only(self) -> tuple:
        round_dir = self.fresh_dir()
        server = Server(round_dir, False, self.hash_seed)
        try:
            setup = server.connect()
            server.stop()
        finally:
            server.kill()
        shutil.rmtree(round_dir, ignore_errors=True)
        return setup

    def round(self, trace: bool) -> dict:
        round_dir = self.fresh_dir()
        wal_dir = os.path.join(round_dir, wl.WAL_DIR)
        wal_before = dir_bytes(wal_dir)
        samples = {"commit": [], "check": [], "read": []}   # daemon CPU seconds
        walls = {"commit": [], "check": [], "read": []}     # send-to-reply seconds
        failures = []
        accepted = rejected = 0
        last_digest = None
        server = Server(round_dir, trace, self.hash_seed)
        try:
            setup = server.connect()
            # Replies hold no reference cycles; keep the client's own
            # collector out of the timed requests.
            gc.collect()
            gc.disable()
            t0 = perf_counter()
            cpu0 = server.cpu()
            for i, req in enumerate(self.workload.requests):
                try:
                    before = server.cpu()
                    reply, seconds = server.conn.request(req.text)
                    cpu = server.cpu() - before
                except OSError as e:
                    failures.append(f"request {i} ({req.verb}): {e}")
                    failures.extend(f"request {j}: not sent"
                                    for j in range(i + 1, len(self.workload.requests)))
                    break
                samples[req.group].append(cpu)
                walls[req.group].append(seconds)
                problem = check_reply(req.expect, reply)
                if problem:
                    failures.append(f"request {i} ({req.verb}): {problem}")
                    continue
                if req.expect[0] in ACCEPTING:
                    accepted += 1
                    if req.expect[0] == "committed":
                        last_digest = _digest_of(reply)
                elif req.expect[0] == "rejected":
                    rejected += 1
            elapsed = perf_counter() - t0
            cpu_s = server.cpu() - cpu0
            report = server.stop()
        finally:
            gc.enable()
            server.kill()
        errors = self.check_outputs(round_dir, accepted, rejected, last_digest)
        spans = None
        if trace:
            spans = tracing.load_spans(server.spans_path)
        result = {
            "trace": trace, "setup_s": setup[0], "setup_wall_s": setup[1],
            "elapsed_s": elapsed, "cpu_s": cpu_s,
            "samples": samples, "walls": walls,
            "failures": failures, "errors": errors, "accepted": accepted,
            "rejected": rejected, "wal_bytes": dir_bytes(wal_dir) - wal_before,
            "maxrss_kb": report["maxrss_kb"], "spans": spans,
        }
        shutil.rmtree(round_dir, ignore_errors=True)
        return result

    def check_outputs(self, round_dir, accepted, rejected, last_digest) -> list:
        """Post-run checks on what the daemon left on disk."""
        errors = []
        try:
            history = wal.load_history(os.path.join(round_dir, wl.WAL_DIR))
        except (wal.WalError, OSError, ValueError) as e:
            return [f"WAL does not validate: {e}"]
        expected = 1 + self.prebuilt + accepted
        if len(history) != expected:
            errors.append(f"WAL holds {len(history)} entries, expected {expected}")
        if last_digest is None or history.head.entry_digest != last_digest:
            errors.append("WAL head digest differs from the last committed reply")
        head = history.artifact_at(history.head.index)
        try:
            books = guidebook.load_guidebooks(
                head.guidebook_imports, base_dir=os.path.join(round_dir, "project"))
            effective = guidebook.effective_obligations(head.obligations, books)
            verdict = obligations.evaluate(head, effective)
            if not verdict.passed:
                errors.append("head state fails its obligations:\n"
                              + obligations.render_verdict(verdict))
        except guidebook.GuidebookError as e:
            errors.append(f"head guidebooks do not load: {e}")
        try:
            found = _rejections(os.path.join(round_dir, wl.FRICTION_PATH))
            if found != self.seeded_rejections + rejected:
                errors.append(f"friction ledger has {found} rejections, expected "
                              f"{self.seeded_rejections + rejected}")
        except (coordination.CoordinationError, OSError, ValueError) as e:
            errors.append(f"friction ledger does not parse: {e}")
        return errors


def _rejections(path: str) -> int:
    ledger = coordination.load_ledger(path)
    return sum(1 for e in ledger.events if e.kind == "agent_rejection")


def _digest_of(reply: str) -> str:
    return sexpr.parse(reply)[1][2][1].text


# ---------------------------------------------------------- metrics


def percentile(values, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[wl.rank(p, len(ordered)) - 1]


def round_metrics(r: dict, tails: dict, wall: bool = False) -> dict:
    """End-to-end figures of one round, from the daemon's CPU time per
    request or, with wall, from the client's send-to-reply times."""
    s = r["walls"] if wall else r["samples"]
    ms = 1000.0
    n = sum(len(v) for v in s.values())
    return {
        "ops_per_s": n / (r["elapsed_s"] if wall else r["cpu_s"]),
        "commit_p50_ms": statistics.median(s["commit"]) * ms,
        "commit_tail_ms": percentile(s["commit"], tails["commit"]) * ms,
        "check_p50_ms": statistics.median(s["check"]) * ms,
        "read_p50_ms": statistics.median(s["read"]) * ms,
        "read_tail_ms": percentile(s["read"], tails["read"]) * ms,
        "wal_bytes_per_commit": r["wal_bytes"] / max(1, r["accepted"]),
        "peak_rss_mb": r["maxrss_kb"] / 1024.0,
    }


def mean_latency(r: dict) -> float:
    values = [v for vs in r["samples"].values() for v in vs]
    return sum(values) / len(values)


def run(generate, seed: int, seconds: float, trace: bool, work_dir: str) -> tuple:
    """Rounds until another would overrun `seconds`. Untraced round k
    replays stream k: stream 0 is generate(seed), stream k > 0 is
    generate("<seed>/<k>"). Mix and counts are the same in every stream,
    while order, actors and targets differ, so the medians over rounds
    also even out how one stream's order happens to fall. A traced run
    alternates untraced and traced rounds of stream 0."""
    streams = []

    def stream(k: int) -> Run:
        if k == len(streams):
            streams.append(Run(generate(seed if k == 0 else f"{seed}/{k}"), seed,
                               os.path.join(work_dir, f"stream-{k}")))
        return streams[k]

    rounds = []
    started = perf_counter()
    longest = 0.0
    while True:
        round_started = perf_counter()
        bench = stream(0 if trace else len(rounds))
        rounds.append(bench.round(trace=trace and len(rounds) % 2 == 1))
        longest = max(longest, perf_counter() - round_started)
        if trace and len(rounds) < 2:
            continue
        if perf_counter() - started + longest > seconds:
            break
    workload = streams[0].workload
    counts = workload.group_counts()
    tails = {g: wl.tail_percentile(counts[g]) for g in ("commit", "read")}
    plain = [r for r in rounds if not r["trace"]]
    traced = [r for r in rounds if r["trace"]]
    setups = [(r["setup_s"], r["setup_wall_s"]) for r in plain]
    if not trace:
        while len(setups) < MIN_SETUPS:
            setups.append(streams[0].setup_only())

    failures = [f for r in rounds for f in r["failures"]]
    errors = [e for r in rounds for e in r["errors"]]
    attempted = len(rounds) * len(workload.requests)
    wall_clock = {}
    if trace:
        summary = tracing.summarize([r["spans"] for r in traced])
        values = summary["metrics"]
        missing = sorted(n for n in tracing.EXPECTED_CALLS[workload.name]
                         if not summary["calls"].get(n))
        if missing:
            errors.append("traced run recorded no calls for: " + ", ".join(missing))
        base = statistics.mean(mean_latency(r) for r in plain)
        overhead = statistics.mean(mean_latency(r) for r in traced) - base
        values["trace.overhead_ms_per_req"] = overhead * 1000.0
        values["trace.overhead_share"] = overhead / base
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        per_round = [round_metrics(r, tails) for r in plain]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["setup_s"] = statistics.median(s[0] for s in setups)
        values["ok_share"] = 1.0 - len(failures) / attempted
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        walls = [round_metrics(r, tails, wall=True) for r in plain]
        wall_clock = {k: statistics.median(m[k] for m in walls)
                      for k in ("ops_per_s", "commit_p50_ms", "commit_tail_ms",
                                "check_p50_ms", "read_p50_ms", "read_tail_ms")}
        wall_clock["setup_s"] = statistics.median(s[1] for s in setups)
    info = {
        "workload": workload.name, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "rounds": len(rounds),
        "traced_rounds": len(traced), "setup_samples": len(setups),
        "artifact_bytes": [len(b.workload.files[wl.ARTIFACT_PATH]) for b in streams],
        "obligations": [b.obligations for b in streams],
        "history_entries": [b.prebuilt for b in streams],
        "requests_per_round": len(workload.requests),
        "request_mix": workload.mix(), "tail_percentiles": tails,
        "accepted_per_round": [r["accepted"] for r in rounds],
        "wal_bytes_per_round": [r["wal_bytes"] for r in rounds],
        "rejected_per_round": [r["rejected"] for r in rounds],
        "wall_clock": wall_clock,
        "failures": failures[:20], "errors": errors[:20],
    }
    result = {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return info, result
