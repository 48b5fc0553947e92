#!/usr/bin/env python3
"""pbclient — command-line client for the pbserve package-query server.

Speaks the newline-framed JSON protocol (src/server/protocol.h): one JSON
request per line, one envelope per line back:

    {"ok": true,  "result": {...}}
    {"ok": false, "error": {"code": "<StatusCode>", "message": "..."}}

Usage:
    pbclient.py --port 7781 hello
    pbclient.py --port 7781 tables
    pbclient.py --port 7781 gen recipes 500 42
    pbclient.py --port 7781 append recipes '[[1, 2.5, "x"], [2, 3.0, "y"]]'
    pbclient.py --port 7781 query 'SELECT PACKAGE(R) FROM recipes R ...' \
        [--session N] [--time-limit S] [--max-nodes N]
    pbclient.py --port 7781 cancel --session N
    pbclient.py --port 7781 stats
    pbclient.py --port 7781 raw '{"op":"query","paql":"..."}'

For CI assertions, --expect checks the envelope and sets the exit code:
    --expect ok                      envelope must have ok == true
    --expect error:ResourceExhausted envelope must be that error code

Exit codes: 0 = expectation met (or no --expect and envelope ok),
1 = envelope mismatch / error, 2 = transport or usage error.

Standard library only; no third-party dependencies.
"""

import argparse
import json
import socket
import sys


class Client:
    """One connection; request() sends a line and reads one envelope."""

    def __init__(self, host, port, timeout):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def request(self, obj):
        self.file.write(json.dumps(obj) + "\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self):
        try:
            self.file.close()
        finally:
            self.sock.close()


def build_request(args):
    if args.command == "hello":
        return {"op": "hello"}
    if args.command == "tables":
        return {"op": "tables"}
    if args.command == "stats":
        return {"op": "stats"}
    if args.command == "cancel":
        return {"op": "cancel", "session": args.session}
    if args.command == "gen":
        if len(args.args) < 1:
            sys.exit("usage: gen <kind> [n] [seed]")
        req = {"op": "gen", "kind": args.args[0]}
        if len(args.args) > 1:
            req["n"] = int(args.args[1])
        if len(args.args) > 2:
            req["seed"] = int(args.args[2])
        return req
    if args.command == "append":
        if len(args.args) != 2:
            sys.exit("usage: append <table> '<json array of row arrays>'")
        try:
            rows = json.loads(args.args[1])
        except ValueError as e:
            sys.exit(f"append: rows must be valid JSON: {e}")
        if not isinstance(rows, list):
            sys.exit("append: rows must be a JSON array of row arrays")
        return {"op": "append", "table": args.args[0], "rows": rows}
    if args.command == "query":
        if len(args.args) != 1:
            sys.exit("usage: query '<paql text>'")
        req = {"op": "query", "paql": args.args[0]}
        if args.session:
            req["session"] = args.session
        budget = {}
        if args.time_limit is not None:
            budget["time_limit_s"] = args.time_limit
        if args.max_nodes is not None:
            budget["max_nodes"] = args.max_nodes
        if budget:
            req["budget"] = budget
        return req
    if args.command == "raw":
        if len(args.args) != 1:
            sys.exit("usage: raw '<json request>'")
        return json.loads(args.args[0])
    sys.exit(f"unknown command '{args.command}'")


def check_expectation(envelope, expect):
    """Returns (met, explanation)."""
    if expect == "ok":
        return bool(envelope.get("ok")), "expected ok envelope"
    if expect.startswith("error:"):
        want = expect.split(":", 1)[1]
        if envelope.get("ok"):
            return False, f"expected error code {want}, got ok envelope"
        code = envelope.get("error", {}).get("code", "")
        return code == want, f"expected error code {want}, got {code!r}"
    sys.exit(f"bad --expect value {expect!r} (use ok or error:<Code>)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--session", type=int, default=0)
    parser.add_argument("--time-limit", type=float, dest="time_limit")
    parser.add_argument("--max-nodes", type=int, dest="max_nodes")
    parser.add_argument("--expect",
                        help="assert the envelope: ok | error:<Code>")
    parser.add_argument("command",
                        choices=["hello", "tables", "stats", "cancel",
                                 "gen", "append", "query", "raw"])
    parser.add_argument("args", nargs="*")
    args = parser.parse_args()

    try:
        client = Client(args.host, args.port, args.timeout)
    except OSError as e:
        sys.exit(f"pbclient: cannot connect to "
                 f"{args.host}:{args.port}: {e}")

    try:
        envelope = client.request(build_request(args))
    except (OSError, ValueError, ConnectionError) as e:
        sys.exit(f"pbclient: transport error: {e}")
    finally:
        client.close()

    print(json.dumps(envelope, indent=2))
    if args.expect:
        met, why = check_expectation(envelope, args.expect)
        if not met:
            print(f"pbclient: FAILED: {why}", file=sys.stderr)
            return 1
        return 0
    return 0 if envelope.get("ok") else 1


if __name__ == "__main__":
    sys.exit(main())
