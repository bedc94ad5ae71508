"""Run one epochd daemon for the benchmark.

    python3 server.py CONFIG TRACE SPANS_PATH

Builds the service with `daemon.build_service` and binds it with
`daemon.serve` from the config the benchmark wrote (which listens on
port 0), prints `PORT <n>` once it is bound, and serves until its
standard input closes. On the way out it prints one JSON line with the
process's peak RSS and, when TRACE is 1, writes the recorded spans to
SPANS_PATH. epochd must be importable (the benchmark puts the
checkout's `src` on PYTHONPATH).
"""

from __future__ import annotations

import json
import resource
import sys
import threading


def main(argv) -> int:
    config_path, trace, spans_path = argv[1], argv[2] == "1", argv[3]
    recorder = None
    if trace:
        import tracing

        recorder = tracing.install()
    from epochd import daemon

    cfg = daemon.load_config(config_path)
    server = daemon.serve(cfg)
    print(f"PORT {server.server_address[1]}", flush=True)
    loop = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    loop.start()
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        loop.join()
    if recorder is not None:
        recorder.dump(spans_path)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
