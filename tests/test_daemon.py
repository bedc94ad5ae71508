"""Service protocol (in-process and over TCP), config loading,
WAL-resumed startup, and the command line front end."""

import os
import threading

import pytest

from epochd import cli
from epochd import coordination as co
from epochd import daemon as dm
from epochd import kernel as kn
from epochd import model, sandbox, sexpr, wal
from epochd.model import parse_rfc3339
from epochd.sexpr import Integer, SList, String, Symbol, parse, print_canonical

NOW = parse_rfc3339(sandbox.DEMO_NOW)


def demo_service(**kw):
    a = model.decode_text(sandbox.DEMO_ARTIFACT)
    reader = {"epoch.guidebook.epoch": sandbox.DEMO_GUIDEBOOK}.__getitem__
    kw.setdefault("clock", lambda: NOW)
    runner = kw.pop("runner", None)
    file_reader = kw.pop("file_reader", None)
    k = kn.Kernel(a, guidebook_reader=reader, base_dir="project", **kw)
    return dm.KernelService(k, runner=runner, file_reader=file_reader)


def delivery_change_set(test_paths=(), actor="gemini-8536"):
    feat = model.encode_feature(model.Feature(
        "FEAT-01", "classification pipeline", "delivered",
        model.Scope(("UR-01", "FR-01"), ("src/brain.py",), tuple(test_paths))))
    return model.ChangeSet(
        ops=(model.UpdateOp("features", "FEAT-01", feat),),
        actor=actor, intent="deliver FEAT-01")


def wire(cs):
    return print_canonical(model.change_set_to_sexpr(cs))


# ----------------------------------------------------------- protocol


def test_ping():
    assert demo_service().handle("(ping)") == "(ok pong)"


def test_artifact_health_runs_everything():
    out = parse(demo_service().handle("(artifact-health)"))
    assert out[0] == Symbol("ok")
    # 4 artifact obligations + 3 inherited guidebook constraints
    assert out[1] == SList((Symbol("pass"), Integer(7)))


def test_malformed_request_answers_and_connection_survives():
    svc = demo_service()
    out = parse(svc.handle("())"))
    assert out[0] == Symbol("err") and out[1] == Symbol("parse")
    assert svc.handle("(ping)") == "(ok pong)"


def test_atom_request_is_a_parse_error():
    out = parse(demo_service().handle("ping"))
    assert out[0] == Symbol("err") and out[1] == Symbol("parse")


def test_unknown_verb():
    out = parse(demo_service().handle("(warp-core-eject)"))
    assert out[0] == Symbol("err")
    assert out[1] == Symbol("unknown-verb")


def test_verb_crash_becomes_internal_error():
    svc = demo_service()
    svc.kernel.what_if = None  # sabotage
    out = parse(svc.handle(f"(what-if {wire(delivery_change_set())})"))
    assert out[0] == Symbol("err") and out[1] == Symbol("internal")
    assert svc.handle("(ping)") == "(ok pong)"


MALFORMED_REQUESTS = [
    ('(commit-change-set (change-set (actor)))', "actor"),
    ('(commit-change-set (change-set (actor "a") (ops (add))))', "(add)"),
    ('(commit-change-set (change-set (actor "a") (ops (update features))))', "(update features)"),
    ('(what-if (change-set (actor "a") (ops (add coordination (claim (agent) (feature FEAT-01)'
     ' (lease-expires "2030-01-01T00:00:00Z"))))))', "agent"),
    ('(what-if (change-set (actor "a") (ops (add workflows (workflow W (initial))))))', "initial"),
    ('(what-if (change-set (actor "a") (ops (add features (feature F9 (scope ()))))))', "scope"),
    ('(what-if (change-set (actor "a") (ops (add architecture (component)))))', "component"),
    ('(what-if (change-set (actor "a") (ops (add coordination ()))))', "coordination"),
    ('(record-lesson "a" oops)', "lesson"),
    ('(retroactive-verify 3 oops)', "proof"),
    ('(retroactive-verify 3 (proof P1 (kind)))', "kind"),
]


@pytest.mark.parametrize("request_text, names", MALFORMED_REQUESTS)
def test_malformed_records_get_a_typed_answer(request_text, names):
    svc = demo_service()
    head_before = svc.kernel.head_fingerprint()
    out = parse(svc.handle(request_text))
    if out[0] == Symbol("err"):
        assert out[1] == Symbol("bad-args")
        message = out[2].text
    else:
        assert out[0] == Symbol("ok") and out[1][:2] == (Symbol("verdict"), Symbol("fail"))
        message = out[1][2][1][4].text
    assert names in message
    assert svc.kernel.head_fingerprint() == head_before


def test_guard_over_variable_cap_is_a_verdict_not_an_internal_error():
    guard = "(or " + " ".join(f"v{i}" for i in range(70)) + ")"
    form = (f'(change-set (actor "opus-a1b2") (ops (add workflows (workflow capped'
            f' (states a b) (initial a) (transition a b (guard {guard}))))))')
    svc = demo_service()
    out = parse(svc.handle(f"(what-if {form})"))
    assert out[1][:2] == (Symbol("verdict"), Symbol("fail"))
    out = parse(svc.handle(f"(commit-change-set {form})"))
    assert out[:2] == (Symbol("err"), Symbol("rejected"))
    assert "guard satisfiability undecided: 70 variables exceeds cap 64" in out[2].text


def test_read_system_round_trips():
    svc = demo_service()
    out = parse(svc.handle("(read-system)"))
    assert out[0] == Symbol("ok")
    assert sexpr.fingerprint(out[1]) == svc.kernel.head_fingerprint()


def test_commit_rejected_over_wire():
    svc = demo_service()
    out = parse(svc.handle(f"(commit-change-set {wire(delivery_change_set())})"))
    assert out[0] == Symbol("err") and out[1] == Symbol("rejected")
    message = out[2].text
    assert "REJECTED: 1 violation (GC-SCOPE-COMPLETENESS)" in message
    violations = out[3]
    assert violations[0] == Symbol("violations")
    row = violations[1]
    assert row[1] == Symbol("GC-SCOPE-COMPLETENESS")
    assert row[2] == Symbol("feature-code-test-symmetry")
    assert len(svc.kernel.history) == 1  # genesis only


def test_commit_accepted_over_wire():
    svc = demo_service()
    cs = delivery_change_set(test_paths=("tests/test_brain.py",))
    out = parse(svc.handle(f"(commit-change-set {wire(cs)})"))
    assert out[0] == Symbol("ok")
    committed = out[1]
    assert committed[0] == Symbol("committed")
    assert committed[1] == SList((Symbol("index"), Integer(1)))
    assert svc.kernel.artifact.feature("FEAT-01").status == "delivered"


def test_commit_with_stale_fingerprint():
    svc = demo_service()
    cs = delivery_change_set(test_paths=("tests/test_brain.py",))
    out = parse(svc.handle(f'(commit-change-set {wire(cs)} "{"0" * 64}")'))
    assert out[0] == Symbol("err") and out[1] == Symbol("stale-state")
    fresh = svc.kernel.head_fingerprint()
    out = parse(svc.handle(f'(commit-change-set {wire(cs)} "{fresh}")'))
    assert out[0] == Symbol("ok")


def test_what_if_reports_without_committing():
    svc = demo_service()
    out = parse(svc.handle(f"(what-if {wire(delivery_change_set())})"))
    assert out[0] == Symbol("ok")
    verdict = out[1]
    assert verdict[0] == Symbol("verdict") and verdict[1] == Symbol("fail")
    assert len(svc.kernel.history) == 1


def test_precommit_pass_shape():
    svc = demo_service()
    cs = delivery_change_set(test_paths=("tests/test_brain.py",))
    out = parse(svc.handle(f"(precommit-check {wire(cs)})"))
    assert out[1] == SList((Symbol("verdict"), Symbol("pass")))


def test_claim_refused_while_lease_active():
    svc = demo_service()
    out = parse(svc.handle("(claim-feature newcomer-9 FEAT-01)"))
    assert out[0] == Symbol("err") and out[1] == Symbol("refused")
    assert "active-lease" in out[2].text


def test_claim_renewal_by_holder():
    svc = demo_service()
    out = parse(svc.handle("(claim-feature opus-a1b2 FEAT-01)"))
    assert out[0] == Symbol("ok")
    claimed = out[1]
    assert claimed[0] == Symbol("claimed") and claimed[1] == Symbol("FEAT-01")


def test_evidence_gate_verb_pass_and_fail():
    files = {"tests/test_brain.py": b"def test_ok(): pass\n"}
    svc = demo_service(runner=lambda paths: (True, "1 passed"),
                       file_reader=files.__getitem__)
    # the demo feature has no test paths yet; declare them first
    cs = model.ChangeSet(
        ops=(model.UpdateOp("features", "FEAT-01", model.encode_feature(
            model.Feature("FEAT-01", "classification pipeline", "claimed",
                          model.Scope(("UR-01", "FR-01"), ("src/brain.py",),
                                      ("tests/test_brain.py",))))),),
        actor="gemini-8536", intent="declare tests")
    assert parse(svc.handle(f"(commit-change-set {wire(cs)})"))[0] == Symbol("ok")

    out = parse(svc.handle("(run-evidence-gate FEAT-01)"))
    assert out[0] == Symbol("ok")
    assert out[1][0] == Symbol("evidence")
    assert svc.kernel.artifact.evidence[-1].server_computed

    failing = dm.KernelService(svc.kernel, runner=lambda paths: (False, "boom"),
                               file_reader=files.__getitem__)
    out = parse(failing.handle("(run-evidence-gate FEAT-01)"))
    assert out[0] == Symbol("err") and out[1] == Symbol("gate-failed")


def test_record_lesson_and_scope_query():
    svc = demo_service()
    lesson = ('(lesson LSN-1 (failure "solver timeout")'
              ' (root-cause "unbounded quantifier") (fix "bound the domain")'
              ' (obligation "check solver budget")'
              ' (affected-scope "src/brain.py"))')
    out = parse(svc.handle(f"(record-lesson gemini-8536 {lesson})"))
    assert out[0] == Symbol("ok")
    kinds = [e.kind for e in svc.kernel.ledger.events
             if e.agent == "gemini-8536"]
    assert kinds == ["probe_success", "lesson_recorded"]

    hits = parse(svc.handle('(lessons-for-scope "src/brain.py")'))
    assert hits[0] == Symbol("ok")
    assert len(hits[1].items) == 2  # (lessons <one hit>)
    misses = parse(svc.handle('(lessons-for-scope "docs/")'))
    assert len(misses[1].items) == 1


def test_retroactive_verify_verb():
    svc = demo_service()
    candidate = ('(proof PO-NEW (kind traceability-complete)'
                 ' (description "retrofit"))')
    out = parse(svc.handle(f"(retroactive-verify 5 {candidate})"))
    assert out[0] == Symbol("ok")
    assert out[1] == SList((Symbol("safe"),))


def test_friction_and_tier_verbs():
    ledger = co.FrictionLedger()
    for _ in range(3):
        ledger.record("agent_rejection", "clumsy-7", sandbox.DEMO_NOW,
                      po_kinds=("ratchet",))
    svc = demo_service(ledger=ledger)
    out = parse(svc.handle("(friction-score clumsy-7)"))
    assert out[1] == SList((Symbol("score"), String("3")))
    out = parse(svc.handle("(tier-of clumsy-7)"))
    assert out[1] == SList((Symbol("tier"), Symbol("supervised")))


def test_matrix_and_report_render_as_lines():
    svc = demo_service()
    out = parse(svc.handle("(traceability-matrix)"))
    text = dm.response_lines(out[1][1])
    assert "UR-01" in text and "FR-01" in text
    out = parse(svc.handle("(compliance-report)"))
    assert out[1][0] == Symbol("report")


def test_impact_analysis_verb():
    out = parse(demo_service().handle("(impact-analysis UR-01)"))
    groups = {g[0].text: [n.text for n in g.items[1:]] for g in out[1].items[1:]}
    assert groups["components"] == ["Brain"]
    assert groups["features"] == ["FEAT-01"]


def test_unknown_requirement_is_bad_args_not_crash():
    out = parse(demo_service().handle("(impact-analysis REQ-404)"))
    assert out[0] == Symbol("err") and out[1] == Symbol("bad-args")


# ------------------------------------------------------------ framing


def test_read_form_text_reassembles_multiline():
    chunks = ['(verdict "line one\n', 'line two")\n']
    it = iter(chunks + [""])
    text = dm.read_form_text(lambda: next(it))
    assert parse(text) == SList((Symbol("verdict"), String("line one\nline two")))


def test_read_form_text_eof_mid_stream():
    it = iter([""])
    assert dm.read_form_text(lambda: next(it)) is None


def test_read_form_text_returns_garbage_for_handler():
    it = iter(["())\n", ""])
    text = dm.read_form_text(lambda: next(it))
    with pytest.raises(sexpr.SexprError):
        parse(text)


# ---------------------------------------------------------------- TCP


@pytest.fixture()
def tcp_server():
    svc = demo_service()
    server = dm.DaemonServer(("127.0.0.1", 0), svc)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def tcp_client(server):
    host, port = server.server_address[:2]
    return cli.SocketTransport(host, port)


def test_tcp_round_trip_with_multiline_response(tcp_server):
    client = tcp_client(tcp_server)
    try:
        assert client.request("(ping)") == "(ok pong)"
        reply = client.request(f"(commit-change-set {wire(delivery_change_set())})")
        out = parse(reply)
        assert out[1] == Symbol("rejected")
        # rendered verdict rides the wire with its raw newlines intact
        assert "REJECTED: 1 violation (GC-SCOPE-COMPLETENESS)" in out[2].text
        assert client.request("(ping)") == "(ok pong)"
    finally:
        client.close()


def test_tcp_malformed_line_keeps_connection(tcp_server):
    client = tcp_client(tcp_server)
    try:
        out = parse(client.request("())"))
        assert out[0] == Symbol("err") and out[1] == Symbol("parse")
        assert client.request("(ping)") == "(ok pong)"
    finally:
        client.close()


def test_tcp_multiline_request(tcp_server):
    client = tcp_client(tcp_server)
    try:
        cs = delivery_change_set(test_paths=("tests/test_brain.py",))
        body = f"(what-if {wire(cs)})"
        cut = body.index("(ops")
        client.sock.sendall(body[:cut].encode() + b"\n")
        client.sock.sendall(body[cut:].encode() + b"\n")
        reply = dm.read_form_text(client.rfile.readline)
        assert parse(reply)[1] == SList((Symbol("verdict"), Symbol("pass")))
    finally:
        client.close()


def test_tcp_concurrent_cas_commits_serialize(tcp_server):
    fresh = tcp_server.service.kernel.head_fingerprint()
    cs = delivery_change_set(test_paths=("tests/test_brain.py",))
    request = f'(commit-change-set {wire(cs)} "{fresh}")'
    results = []
    barrier = threading.Barrier(4)

    def worker():
        client = tcp_client(tcp_server)
        try:
            barrier.wait()
            results.append(parse(client.request(request))[0:2])
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    heads = [tuple(r) for r in results]
    accepted = [h for h in heads if h[0] == Symbol("ok")]
    stale = [h for h in heads if h[1] == Symbol("stale-state")]
    assert len(accepted) == 1
    assert len(stale) == 3
    tcp_server.service.kernel.history.validate()


def test_tcp_parallel_distinct_commits_all_land(tcp_server):
    def add_req(n):
        req = parse(f'(req STRESS-{n} (kind functional) (shall "stress {n}"))')
        trace = parse(f"(trace TR-STRESS-{n} STRESS-{n} Brain Verdict)")
        return model.ChangeSet(
            ops=(model.AddOp("requirements", req),
                 model.AddOp("traceability", trace)),
            actor=f"writer-{n}", intent=f"stress {n}")

    def worker(n, results):
        client = tcp_client(tcp_server)
        try:
            results.append(parse(client.request(
                f"(commit-change-set {wire(add_req(n))})"))[0])
        finally:
            client.close()

    results: list = []
    threads = [threading.Thread(target=worker, args=(n, results))
               for n in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [Symbol("ok")] * 6
    history = tcp_server.service.kernel.history
    history.validate()
    assert len(history) == 7  # genesis + 6


# ------------------------------------------------------ config/startup


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "epochd.conf"
    path.write_text("""
(epochd-config
  (artifact "project/system.nidus")
  (base-dir "project")
  (wal-dir "wal")
  (friction "friction.sexpr")
  (listen "0.0.0.0" 7777)
  (witnesses "lint" "unit-sim")
  (thresholds (theta1 4) (theta2 12) (window 25))
  (runner "pytest" "-q" "{test_paths}"))
""")
    cfg = dm.load_config(str(path))
    assert cfg.artifact_path == "project/system.nidus"
    assert cfg.base_dir == "project"
    assert cfg.host == "0.0.0.0" and cfg.port == 7777
    assert cfg.witnesses == ("lint", "unit-sim")
    assert cfg.theta1 == 4 and cfg.theta2 == 12 and cfg.window == 25
    assert cfg.runner_template == ("pytest", "-q", "{test_paths}")


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text('(epochd-config (artifact "a") (turbo on))')
    with pytest.raises(ValueError):
        dm.load_config(str(path))


def test_build_service_resumes_existing_wal(tmp_path):
    artifact_path = sandbox.write_demo_tree(str(tmp_path))
    wal_dir = str(tmp_path / "wal")
    os.makedirs(wal_dir)
    cfg = dm.DaemonConfig(artifact_path=artifact_path, wal_dir=wal_dir,
                          friction_path=str(tmp_path / "friction.sexpr"))

    first = dm.build_service(cfg)
    cs = delivery_change_set(test_paths=("tests/test_brain.py",))
    assert parse(first.handle(f"(commit-change-set {wire(cs)})"))[0] == Symbol("ok")
    head = first.kernel.history.head.entry_digest

    second = dm.build_service(cfg)
    assert len(second.kernel.history) == 2
    assert second.kernel.history.head.entry_digest == head
    assert second.kernel.artifact.feature("FEAT-01").status == "delivered"
    # friction survived the restart: actor credit plus collaborative
    # credit for the claim holder
    events = second.kernel.ledger.events
    assert [e.kind for e in events] == ["probe_success", "probe_success"]
    assert {e.agent for e in events} == {"gemini-8536", "opus-a1b2"}


def test_build_service_refuses_tampered_wal(tmp_path):
    artifact_path = sandbox.write_demo_tree(str(tmp_path))
    wal_dir = str(tmp_path / "wal")
    os.makedirs(wal_dir)
    cfg = dm.DaemonConfig(artifact_path=artifact_path, wal_dir=wal_dir)
    dm.build_service(cfg)

    entry = os.path.join(wal_dir, sorted(os.listdir(wal_dir))[0])
    with open(entry, "r", encoding="utf-8") as fh:
        text = fh.read()
    with open(entry, "w", encoding="utf-8") as fh:
        fh.write(text.replace("kernel", "mallory"))
    with pytest.raises(wal.WalError):
        dm.build_service(cfg)


def test_build_service_refuses_contradictory_guidebook(tmp_path):
    artifact_path = sandbox.write_demo_tree(str(tmp_path))
    book = tmp_path / sandbox.DEMO_GUIDEBOOK_NAME
    book.write_text(book.read_text() + """
(guidebook-constraint GC-IMPOSSIBLE
  (z3_formula (and flag (not flag)))
  (po-kind ratchet))
""")
    cfg = dm.DaemonConfig(artifact_path=artifact_path)
    with pytest.raises(kn.GuidebookInconsistent):
        dm.build_service(cfg)


# ------------------------------------------------------------------ CLI


@pytest.fixture()
def demo_tree(tmp_path):
    return sandbox.write_demo_tree(str(tmp_path))


def test_cli_commit_rejection_output(demo_tree, tmp_path, capsys):
    cs_path = tmp_path / "cs.sexpr"
    cs_path.write_text(wire(delivery_change_set()))
    rc = cli.main(["--artifact", demo_tree, "commit-change-set", str(cs_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REJECTED: 1 violation (GC-SCOPE-COMPLETENESS)" in out
    assert "feature-code-test-symmetry" in out


def test_cli_commit_accepts_complete_delivery(demo_tree, tmp_path, capsys):
    cs_path = tmp_path / "cs.sexpr"
    cs_path.write_text(wire(delivery_change_set(("tests/test_brain.py",))))
    rc = cli.main(["--artifact", demo_tree, "commit-change-set", str(cs_path)])
    assert rc == 0
    assert "committed" in capsys.readouterr().out


def test_cli_ping_and_health(demo_tree, capsys):
    assert cli.main(["--artifact", demo_tree, "ping"]) == 0
    assert capsys.readouterr().out.strip() == "pong"
    assert cli.main(["--artifact", demo_tree, "artifact-health"]) == 0
    assert "(pass 7)" in capsys.readouterr().out


def test_cli_validate_guidebooks_ok(demo_tree, capsys):
    assert cli.main(["--artifact", demo_tree, "validate-guidebooks"]) == 0
    assert "no issues" in capsys.readouterr().out


def test_cli_validate_guidebooks_flags_contradiction(demo_tree, tmp_path, capsys):
    book = tmp_path / sandbox.DEMO_GUIDEBOOK_NAME
    book.write_text(book.read_text() + """
(guidebook-constraint GC-IMPOSSIBLE
  (z3_formula (and flag (not flag)))
  (po-kind ratchet))
""")
    assert cli.main(["--artifact", demo_tree, "validate-guidebooks"]) == 1
    assert "unsat" in capsys.readouterr().out


def test_cli_simulate_deterministic(capsys):
    argv = ["simulate", "--policy", "fabricator", "--seed", "7", "--steps", "15"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert "fabricator-0" in first


def test_cli_lesion(capsys):
    assert cli.main(["lesion"]) == 0
    assert "guarded" in capsys.readouterr().out


def test_cli_missing_artifact_errors():
    with pytest.raises(SystemExit):
        cli.main(["ping"])


@pytest.mark.parametrize("corrupt, named", [
    (lambda text: text[: len(text) // 2], f"000000{wal.ENTRY_SUFFIX}"),
    (lambda text: text.replace("kernel", "mallory"), "entry 0"),
], ids=["torn", "tampered"])
def test_cli_reports_broken_wal(demo_tree, tmp_path, capsys, corrupt, named):
    argv = ["--artifact", demo_tree, "--wal-dir", str(tmp_path / "wal"), "ping"]
    assert cli.main(argv) == 0
    entry = tmp_path / "wal" / f"000000{wal.ENTRY_SUFFIX}"
    entry.write_text(corrupt(entry.read_text()))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("config, ledger", [
    ("(epochd-config (artifact))", None),
    ('(epochd-config (artifact "{artifact}") (listen "h" "x"))', None),
    ('(epochd-config (artifact "{artifact}") (thresholds theta1))', None),
    ('(epochd-config (artifact "{artifact}") (friction "{ledger}"))',
     "(agent-friction-ledger (events (friction-event E1 (kind))))"),
], ids=["artifact", "listen", "thresholds", "ledger"])
def test_cli_reports_malformed_config_and_ledger(demo_tree, tmp_path, capsys, config, ledger):
    ledger_path = tmp_path / "friction.sexpr"
    if ledger is not None:
        ledger_path.write_text(ledger)
    config_path = tmp_path / "epochd.conf"
    config_path.write_text(config.format(artifact=demo_tree, ledger=ledger_path))
    assert cli.main(["--config", str(config_path), "ping"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_tier_subcommand(demo_tree, capsys):
    assert cli.main(["--artifact", demo_tree, "tier-of", "anyone"]) == 0
    assert capsys.readouterr().out.strip() == "(tier unrestricted)"
