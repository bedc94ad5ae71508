"""Span recording around epochd's public functions, installed from
outside the package, and the reduction of recorded spans to the
per-layer metrics the benchmark reports.

`install()` runs inside the benchmark's server process before the
daemon is built. Every target below is replaced by a wrapper in its
owning module and at every other binding site: any module global in
the package that still refers to the original function (for example
`kernel.apply_change_set`, imported by name) is rebound to the same
wrapper. `unwrapped_bindings()` then proves that no binding was left
behind, so a layer cannot be silently missed.

A span is `[name, start, end, parent, request id, extra]`, kept in
memory and written out once at server exit. Time blocked in the
socket `readline` that request framing is given is recorded as a
`wait.socket` child of `daemon.frame`, so framing is measured net of
idle time in the closed loop.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import threading
import types
from collections import Counter, defaultdict
from time import perf_counter

import epochd
from epochd import daemon, wal

# span name -> dotted path of the public function it wraps, relative
# to the epochd package. The layer is the span name's first part.
TARGETS = (
    ("daemon.handle", "daemon.KernelService.handle"),
    ("sexpr.parse", "sexpr.parse"),
    ("sexpr.parse", "sexpr.parse_all"),
    ("sexpr.print", "sexpr.print_canonical"),
    ("sexpr.sha256", "sexpr.fingerprint"),
    ("sexpr.sha256", "sexpr.fingerprint_text"),
    ("model.encode", "model.encode_text"),
    ("model.decode", "model.decode_text"),
    ("model.apply", "model.apply_change_set"),
    ("model.fingerprint", "model.artifact_fingerprint"),
    ("kernel.commit", "kernel.Kernel.commit_change_set"),
    ("kernel.what_if", "kernel.Kernel.what_if"),
    ("kernel.precommit", "kernel.Kernel.precommit_check"),
    ("kernel.guards", "obligations.immutability_guard"),
    ("kernel.guards", "kernel.ratchet_violations"),
    ("obligations.evaluate", "obligations.evaluate_kinds"),
    ("predicates.instances", "predicates.formula_instances"),
    ("solver.lia", "solver.check_sat_lia"),
    ("solver.prop", "solver.check_sat_prop"),
    ("solver.core", "solver.minimal_unsat_subset"),
    ("guidebook.load", "guidebook.load_guidebooks"),
    ("guidebook.effective", "guidebook.effective_obligations"),
    ("guidebook.consistency", "guidebook.check_guidebook_consistency"),
    ("wal.append", "wal.History.append"),
    ("wal.validate", "wal.History.validate"),
    ("wal.save", "wal.save_entry"),
    ("wal.load", "wal.load_history"),
    ("wal.retro", "wal.retroactive_verify"),
    ("wal.report", "wal.compliance_report"),
    ("wal.report", "wal.traceability_matrix"),
    ("wal.report", "wal.impact_analysis"),
    ("coordination.ledger_save", "coordination.save_ledger"),
    ("coordination.tier", "coordination.tier_of"),
    ("coordination.claim", "coordination.claim_feature"),
    ("evidence.gate", "evidence.run_evidence_gate"),
    ("evidence.hash", "evidence.hash_test_paths"),
    ("lessons.scope", "lessons.lessons_for_scope"),
)

GATE_SPANS = ("kernel.commit", "kernel.what_if", "kernel.precommit")

# Functions that call themselves through their module global. Their
# wrapper calls a private copy whose globals point back at the copy,
# so one outer call is one span however deep the tree.
RECURSIVE = {"sexpr.print_canonical"}

# Obligation kinds whose registry counters are reported per gate: the
# union of the kinds the three workloads' artifacts carry.
REPORTED_KINDS = (
    "traceability-complete", "connector-integrity", "dag-enforcement",
    "workflow-satisfiability", "feature-code-test-symmetry",
    "delivery-cascade", "call-graph-dag", "evidence-provenance",
    "claim-before-dispatch",
)

LAYERS = (
    "daemon", "sexpr", "model", "kernel", "obligations", "predicates",
    "solver", "guidebook", "wal", "coordination", "evidence", "lessons",
)

# Span names each workload must record at least once in a traced run.
EXPECTED_CALLS = {
    "wide-gate": {
        "daemon.frame", "daemon.handle", "sexpr.parse", "sexpr.print",
        "sexpr.sha256", "model.encode", "model.decode", "model.apply",
        "model.fingerprint", "kernel.commit", "kernel.what_if",
        "kernel.precommit", "kernel.guards", "obligations.evaluate",
        "guidebook.effective", "guidebook.consistency", "wal.append",
        "wal.validate", "wal.save", "coordination.ledger_save",
        "coordination.tier",
    },
    "agent-chatter": {
        "daemon.frame", "daemon.handle", "sexpr.parse", "sexpr.print",
        "sexpr.sha256", "model.encode", "model.decode", "model.apply",
        "model.fingerprint", "kernel.commit", "kernel.what_if",
        "kernel.precommit", "kernel.guards", "obligations.evaluate",
        "predicates.instances", "solver.lia", "solver.prop", "solver.core",
        "guidebook.load", "guidebook.effective", "guidebook.consistency",
        "wal.append", "wal.validate", "wal.save", "coordination.ledger_save",
        "coordination.tier", "coordination.claim", "evidence.gate",
        "evidence.hash", "lessons.scope",
    },
    "history-audit": {
        "daemon.frame", "daemon.handle", "sexpr.parse", "sexpr.print",
        "sexpr.sha256", "model.encode", "model.decode", "model.apply",
        "model.fingerprint", "kernel.commit", "kernel.what_if",
        "kernel.precommit", "kernel.guards", "obligations.evaluate",
        "guidebook.effective", "guidebook.consistency",
        "wal.append", "wal.validate", "wal.save", "wal.load", "wal.retro",
        "wal.report", "coordination.ledger_save", "coordination.tier",
    },
}


def _package_modules():
    return [importlib.import_module(f"epochd.{info.name}")
            for info in pkgutil.iter_modules(epochd.__path__)]


def _resolve(path: str):
    module_name, *owners, attr = path.split(".")
    owner = importlib.import_module(f"epochd.{module_name}")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _private_copy(fn, module_name: str):
    """A copy of fn whose own name resolves to the copy."""
    module = importlib.import_module(f"epochd.{module_name}")
    namespace = dict(vars(module))
    clone = types.FunctionType(fn.__code__, namespace, fn.__name__,
                               fn.__defaults__, fn.__closure__)
    namespace[fn.__name__] = clone
    return clone


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._requests = 0
        self.originals: dict = {}

    # ----------------------------------------------------- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None,
                getattr(self._local, "request", 0), None]
        self.spans.append(span)
        stack.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list):
        span[2] = perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, extra=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span)
                if extra is not None:
                    span[5] = extra(args, result)

        traced.__wrapped__ = fn
        return traced

    def wrap_gate(self, name: str, fn):
        """Kernel gate entry: also records the registry counter deltas
        and, for commits, whether the change was accepted."""
        def traced(kernel, *args, **kwargs):
            registry = kernel.registry
            invocations = Counter(registry.invocations)
            work = Counter(registry.work_units)
            span = self._open(name)
            try:
                result = fn(kernel, *args, **kwargs)
            finally:
                self._close(span)
            span[5] = {
                "accepted": bool(getattr(result, "accepted", False)),
                "invocations": dict(registry.invocations - invocations),
                "work_units": dict(registry.work_units - work),
            }
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_framing(self, fn):
        """read_form_text(readline): one new request id per call, and
        the readline it is handed timed as a wait.socket child span."""
        def traced(readline):
            self._requests += 1
            self._local.request = self._requests

            def timed_readline():
                span = self._open("wait.socket")
                try:
                    return readline()
                finally:
                    self._close(span)

            span = self._open("daemon.frame")
            try:
                return fn(timed_readline)
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------- output

    def dump(self, path: str):
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s[0], s[1], s[2], index[id(s[3])] if s[3] is not None else -1, s[4], s[5]]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def _extras():
    def text_size(args, result):
        return len(args[0]) if args and isinstance(args[0], str) else 0

    def status(args, result):
        return result.status if result is not None else "error"

    # extras run after the call, also when it raised (result is None)
    return {
        "daemon.KernelService.handle": lambda args, result: (len(args[1]), len(result or "")),
        "sexpr.parse": text_size,
        "sexpr.parse_all": text_size,
        "model.encode_text": lambda args, result: len(result or ""),
        "solver.check_sat_lia": status,
        "solver.check_sat_prop": status,
        "wal.save_entry": lambda args, result: os.path.getsize(
            wal.entry_path(args[0], args[1].index)),
        "coordination.save_ledger": lambda args, result: os.path.getsize(args[0]),
    }


def install() -> Recorder:
    """Wrap every target at every binding site in the package."""
    recorder = Recorder()
    modules = _package_modules()
    extras = _extras()
    replacements = {}
    for name, path in TARGETS:
        owner, attr = _resolve(path)
        original = getattr(owner, attr)
        if path in RECURSIVE:
            inner = _private_copy(original, path.split(".")[0])
        else:
            inner = original
        if name in GATE_SPANS:
            wrapped = recorder.wrap_gate(name, inner)
        else:
            wrapped = recorder.wrap(name, inner, extras.get(path))
        setattr(owner, attr, wrapped)
        replacements[id(original)] = wrapped
        recorder.originals[path] = original

    framing = daemon.read_form_text
    replacements[id(framing)] = recorder.wrap_framing(framing)
    recorder.originals["daemon.read_form_text"] = framing

    for module in modules:
        for key, value in list(vars(module).items()):
            wrapped = replacements.get(id(value))
            if wrapped is not None:
                setattr(module, key, wrapped)
    missed = unwrapped_bindings(recorder, modules)
    if missed:
        raise RuntimeError("unwrapped binding sites: " + ", ".join(missed))
    return recorder


def unwrapped_bindings(recorder: Recorder, modules=None) -> list:
    """Module globals and class attributes in the package that still
    refer to an original (unwrapped) target function."""
    originals = {id(fn): path for path, fn in recorder.originals.items()}
    found = []
    for module in modules or _package_modules():
        for key, value in vars(module).items():
            if id(value) in originals:
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if id(member) in originals:
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


# ------------------------------------------------------- reduction


def load_spans(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _self_times(spans) -> list:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - child_time[i] for i, s in enumerate(spans)]


def _ancestors_named(spans, i: int, names) -> int:
    """Index of the nearest ancestor whose name is in names, or -1."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return p
        p = spans[p][3]
    return -1


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def summarize(runs) -> dict:
    """Per-layer metrics from the span dumps of one or more traced
    server runs. Times are milliseconds, sizes kilobytes."""
    calls: Counter = Counter()
    total: Counter = Counter()          # inclusive seconds per span name
    layer_self: Counter = Counter()     # self seconds per layer, request phase
    sizes: defaultdict = defaultdict(float)
    per_commit: Counter = Counter()     # span counts inside accepted commits
    in_gate: Counter = Counter()        # inclusive seconds inside gates
    in_gate_calls: Counter = Counter()
    invocations: Counter = Counter()
    work_units: Counter = Counter()
    solver_status: Counter = Counter()
    retro_decodes = 0
    setup_validates = 0
    launches = 0
    requests = 0
    accepted = rejected = 0
    spans_in_requests = 0

    for run in runs:
        spans = run["spans"]
        self_times = _self_times(spans)
        launches += 1
        for i, s in enumerate(spans):
            name, start, end, parent, req, extra = s
            dur = end - start
            calls[name] += 1
            total[name] += dur
            if req > 0:
                spans_in_requests += 1
                layer = name.split(".")[0]
                if layer != "wait":
                    layer_self[layer] += self_times[i]
            elif name == "wal.validate":
                setup_validates += 1
            if name == "daemon.handle":
                requests += 1
                sizes["request"] += extra[0]
                sizes["response"] += extra[1]
            elif name == "sexpr.parse" and req > 0:
                sizes["parse"] += extra
            elif name == "model.encode":
                sizes["snapshot"] += extra
            elif name == "wal.save":
                sizes["wal_save"] += extra
            elif name == "coordination.ledger_save":
                sizes["ledger_save"] += extra
            elif name in ("solver.lia", "solver.prop"):
                solver_status[extra] += 1
            if name in GATE_SPANS:
                invocations.update(extra["invocations"])
                work_units.update(extra["work_units"])
                if name == "kernel.commit":
                    if extra["accepted"]:
                        accepted += 1
                    else:
                        rejected += 1
            gate = _ancestors_named(spans, i, GATE_SPANS)
            if gate >= 0:
                in_gate[name] += dur
                in_gate_calls[name] += 1
                if spans[gate][0] == "kernel.commit" and spans[gate][5]["accepted"]:
                    per_commit[name] += 1
            if name == "model.decode" and _ancestors_named(spans, i, ("wal.retro",)) >= 0:
                retro_decodes += 1

    gates = sum(calls[n] for n in GATE_SPANS)
    ms = 1000.0

    def per_call(name):
        return _mean(total[name] * ms, calls[name])

    solver_calls = calls["solver.lia"] + calls["solver.prop"]
    metrics = {
        # every wait.socket span is a child of a daemon.frame span
        "daemon.frame_ms": _mean((total["daemon.frame"] - total["wait.socket"]) * ms, requests),
        "daemon.handle_ms": per_call("daemon.handle"),
        "daemon.request_kb": _mean(sizes["request"] / 1024, requests),
        "daemon.response_kb": _mean(sizes["response"] / 1024, requests),
        "sexpr.parse_ms": per_call("sexpr.parse"),
        "sexpr.parse_kb_per_req": _mean(sizes["parse"] / 1024, requests),
        "sexpr.print_ms": per_call("sexpr.print"),
        "sexpr.sha256_calls_per_commit": _mean(per_commit["sexpr.sha256"], accepted),
        "sexpr.sha256_ms": per_call("sexpr.sha256"),
        "model.encode_calls_per_commit": _mean(per_commit["model.encode"], accepted),
        "model.encode_ms": per_call("model.encode"),
        "model.decode_calls_per_commit": _mean(per_commit["model.decode"], accepted),
        "model.decode_ms": per_call("model.decode"),
        "model.apply_ms": per_call("model.apply"),
        "model.snapshot_kb": _mean(sizes["snapshot"] / 1024, calls["model.encode"]),
        "kernel.gate_ms": _mean(sum(total[n] for n in GATE_SPANS) * ms, gates),
        "kernel.guards_ms": _mean(in_gate["kernel.guards"] * ms, gates),
        "kernel.accepted": accepted / launches,
        "kernel.rejected": rejected / launches,
        "obligations.evaluate_ms": _mean(in_gate["obligations.evaluate"] * ms, gates),
        "predicates.instances_ms": per_call("predicates.instances"),
        "solver.calls_per_gate": _mean(in_gate_calls["solver.lia"]
                                       + in_gate_calls["solver.prop"], gates),
        "solver.lia_ms": per_call("solver.lia"),
        "solver.prop_ms": per_call("solver.prop"),
        "solver.unknown_share": _mean(solver_status["unknown"], solver_calls),
        "solver.core_ms": per_call("solver.core"),
        "guidebook.effective_ms": per_call("guidebook.effective"),
        "guidebook.consistency_ms": per_call("guidebook.consistency"),
        "wal.append_ms": per_call("wal.append"),
        "wal.save_ms": per_call("wal.save"),
        "wal.bytes_per_save": _mean(sizes["wal_save"], calls["wal.save"]),
        "wal.load_ms": per_call("wal.load"),
        "wal.validate_ms": per_call("wal.validate"),
        "wal.validate_calls": setup_validates / launches,
        "wal.retro_ms": per_call("wal.retro"),
        "wal.decodes_per_retro": _mean(retro_decodes, calls["wal.retro"]),
        "wal.report_ms": per_call("wal.report"),
        "coordination.ledger_save_ms": per_call("coordination.ledger_save"),
        "coordination.ledger_bytes_per_save": _mean(sizes["ledger_save"],
                                                    calls["coordination.ledger_save"]),
        "coordination.tier_ms": per_call("coordination.tier"),
        "coordination.claim_ms": per_call("coordination.claim"),
        "evidence.gate_ms": per_call("evidence.gate"),
        "evidence.hash_ms": per_call("evidence.hash"),
        "lessons.scope_ms": per_call("lessons.scope"),
    }
    for kind in REPORTED_KINDS:
        metrics[f"obligations.invocations.{kind}"] = _mean(invocations[kind], gates)
        metrics[f"obligations.work_units.{kind}"] = _mean(work_units[kind], gates)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_req"] = _mean(layer_self[layer] * ms, requests)
    metrics["trace.spans_per_req"] = _mean(spans_in_requests, requests)
    return {"metrics": metrics, "calls": dict(calls)}

