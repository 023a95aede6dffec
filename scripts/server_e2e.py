#!/usr/bin/env python3
"""End-to-end CI gate for vicinityd: a real server process on loopback,
driven by an independent protocol implementation (raw struct packing, not
the C++ client), cross-checked against vicinity_cli answers on the same
index file.

Phases:
  1. generate a graph + packed index with vicinity_cli
  2. start vicinityd on an ephemeral port, parse the bound port
  3. PING / DISTANCE / DISTANCES / PATH / STATS over a plain socket,
     DISTANCE answers compared bit-for-bit against `vicinity_cli query`
  4. pipelining (burst of ids, responses matched by request id),
     byte-at-a-time frame delivery, malformed frames (wrong version,
     unknown op, truncated payload, trailing garbage) -> ERROR / close,
     never a crash
  5. APPLY_UPDATE: insert an edge, epoch bumps, distance collapses to 1;
     remove it, the old answer comes back
  6. admission: a second vicinityd with --queue-depth=4 sheds a 5-target
     DISTANCES (it can never fit) with BUSY and admits the DISTANCE sent
     next; a pipelined flood gets only correct OK replies or BUSY
  7. SIGTERM -> clean exit 0
  8. result cache: a third vicinityd with --cache-mb; STATS cache counters
     grow on repeated pairs, every entry goes stale after APPLY_UPDATE
     (misses, answers unchanged), then the cache re-warms
  9. graceful drain: SIGTERM with a pipelined burst in flight; every
     in-flight reply is delivered before the process exits 0
 10. fault injection: a daemon running under a benign
     VICINITY_FAULT_INJECT schedule (EINTR/EAGAIN/short io) still
     answers bit-for-bit and still drains cleanly
 11. idle/slow-loris defense: --idle-timeout-ms evicts both a silent
     connection and a half-frame slow-loris, counted in STATS, while a
     healthy connection stays up

Stdlib only. Exit 0 on success; any assertion prints context and exits 1.
vicinityd's stderr is captured to --stderr-log so CI can dump it on
failure.

Usage:
  server_e2e.py --build-dir build [--work-dir /tmp/...]
                [--stderr-log vicinityd_stderr.log]
"""

import argparse
import os
import random
import re
import signal
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

HDR = struct.Struct("<IBBBBQ")  # payload_len, version, op, status, rsvd, rid
VERSION = 2
OP_PING, OP_DISTANCE, OP_DISTANCES, OP_PATH, OP_UPDATE, OP_STATS = range(6)
ST_OK, ST_ERROR, ST_BUSY, ST_TIMEOUT = range(4)
INF_DIST = 0xFFFFFFFF
# STATS payload: 19 u64 counters then 6 doubles (net/protocol.h). Cache
# counters sit at u64 indices 12..15 (hits, misses, inserts, evictions),
# the fault-tolerance counters at 16..18 (timeouts_total, idle_closes,
# slow_client_closes); the lifetime cache_hit_rate is the last double.
STATS_FMT = struct.Struct("<19Q6d")
STATS_CACHE_HITS, STATS_CACHE_MISSES = 12, 13
STATS_CACHE_INSERTS, STATS_CACHE_EVICTIONS = 14, 15
STATS_TIMEOUTS, STATS_IDLE_CLOSES, STATS_SLOW_CLIENT_CLOSES = 16, 17, 18
STATS_CACHE_HIT_RATE = 24

FAILURES = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)
        print(f"FAIL: {msg}", file=sys.stderr)


def require(cond, msg):
    if not cond:
        check(cond, msg)
        print("fatal, aborting", file=sys.stderr)
        sys.exit(1)


def frame(op, payload=b"", rid=1, version=VERSION, status=0):
    return HDR.pack(len(payload), version, op, status, 0, rid) + payload


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None  # EOF
        buf += chunk
    return buf


def recv_frame(sock):
    hdr = recv_exact(sock, HDR.size)
    if hdr is None:
        return None
    payload_len, version, op, status, _, rid = HDR.unpack(hdr)
    payload = recv_exact(sock, payload_len) if payload_len else b""
    if payload_len and payload is None:
        raise RuntimeError("EOF mid-frame")
    return {"version": version, "op": op, "status": status, "rid": rid,
            "payload": payload}


def connect(port, timeout=30.0):
    s = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return s


def distance_req(s, t, rid):
    return frame(OP_DISTANCE, struct.pack("<II", s, t), rid)


def parse_distance_reply(r):
    """-> (epoch, dist, method, exact)"""
    epoch, dist, method, exact = struct.unpack("<QIBB", r["payload"][:14])
    return epoch, dist, method, exact


def query_distance(sock, s, t, rid=7):
    sock.sendall(distance_req(s, t, rid))
    r = recv_frame(sock)
    require(r is not None and r["status"] == ST_OK,
            f"DISTANCE({s},{t}) did not return OK: {r}")
    require(r["rid"] == rid, f"request id mismatch: {r['rid']} != {rid}")
    return parse_distance_reply(r)


def read_stats(sock, rid=900):
    sock.sendall(frame(OP_STATS, rid=rid))
    r = recv_frame(sock)
    require(r is not None and r["status"] == ST_OK, f"STATS failed: {r}")
    return STATS_FMT.unpack(r["payload"][:STATS_FMT.size])


def cli_distances(cli, graph, index, pairs):
    """Ground truth from vicinity_cli query on the same index file."""
    lines = "".join(f"{s} {t}\n" for s, t in pairs)
    proc = subprocess.run(
        [cli, "query", f"--graph={graph}", f"--index={index}"],
        input=lines, capture_output=True, text=True, timeout=300)
    require(proc.returncode == 0,
            f"vicinity_cli query failed:\n{proc.stderr}")
    dists = [int(m) for m in re.findall(r"dist=(\d+)", proc.stdout)]
    require(len(dists) == len(pairs),
            f"expected {len(pairs)} answers from vicinity_cli, "
            f"got {len(dists)}")
    return dists


def start_vicinityd(binary, graph, index, stderr_file, extra=(), env=None):
    child_env = dict(os.environ)
    child_env.pop("VICINITY_FAULT_INJECT", None)
    if env:
        child_env.update(env)
    proc = subprocess.Popen(
        [binary, f"--graph={graph}", f"--index={index}", "--port=0",
         *extra],
        stdout=subprocess.PIPE, stderr=stderr_file, text=True,
        env=child_env)
    line = proc.stdout.readline()
    m = re.match(r"listening on [\d.]+:(\d+)", line)
    if not m:
        proc.kill()
        require(False, f"vicinityd did not announce a port: {line!r}")
    return proc, int(m.group(1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", required=True, type=Path)
    ap.add_argument("--work-dir", type=Path, default=None)
    ap.add_argument("--stderr-log", type=Path,
                    default=Path("vicinityd_stderr.log"))
    ap.add_argument("--scale", type=float, default=0.001,
                    help="livejournal profile scale for the test graph")
    args = ap.parse_args()

    build = args.build_dir.resolve()
    cli = build / "examples" / "vicinity_cli"
    vicinityd = build / "src" / "vicinityd"
    require(cli.is_file(), f"{cli} not built")
    require(vicinityd.is_file(), f"{vicinityd} not built")

    work = args.work_dir or Path("/tmp") / f"vicinity_e2e_{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    graph = work / "g.bin"
    index = work / "i.vci"

    print("== generating graph + index ==")
    subprocess.run([cli, "gen", "--profile=livejournal",
                    f"--scale={args.scale}", f"--out={graph}"],
                   check=True, timeout=300)
    subprocess.run([cli, "build", f"--graph={graph}", f"--out={index}"],
                   check=True, timeout=600)

    rng = random.Random(8)
    pairs = [(rng.randrange(1000), rng.randrange(1000)) for _ in range(64)]
    expected = cli_distances(str(cli), graph, index, pairs)

    stderr_file = open(args.stderr_log, "w")
    print("== starting vicinityd ==")
    proc, port = start_vicinityd(str(vicinityd), graph, index, stderr_file)
    print(f"   port {port}")

    try:
        sock = connect(port)

        # --- PING ---------------------------------------------------------
        sock.sendall(frame(OP_PING, rid=99))
        r = recv_frame(sock)
        check(r and r["status"] == ST_OK and r["rid"] == 99,
              f"PING failed: {r}")

        # --- DISTANCE: bit-identical vs vicinity_cli ----------------------
        print("== distance cross-check ==")
        first_epoch = None
        for (s, t), want in zip(pairs, expected):
            epoch, dist, _, _ = query_distance(sock, s, t)
            shown = dist if dist != INF_DIST else "inf"
            # dist equality is the whole contract; `exact` may be 0 when a
            # landmark estimate happens to be the answer.
            check(dist == want,
                  f"DISTANCE({s},{t}) = {shown}, vicinity_cli says {want}")
            if first_epoch is None:
                first_epoch = epoch
            check(epoch == first_epoch, "epoch drifted with no updates")

        # --- DISTANCES fan ------------------------------------------------
        src = pairs[0][0]
        targets = [t for _, t in pairs[:16]]
        payload = struct.pack("<II", src, len(targets))
        payload += struct.pack(f"<{len(targets)}I", *targets)
        sock.sendall(frame(OP_DISTANCES, payload, rid=500))
        r = recv_frame(sock)
        check(r and r["status"] == ST_OK, f"DISTANCES failed: {r}")
        if r and r["status"] == ST_OK:
            _, n = struct.unpack("<QI", r["payload"][:12])
            check(n == len(targets), f"DISTANCES count {n} != {len(targets)}")
            for i, t in enumerate(targets):
                dist = struct.unpack_from("<I", r["payload"], 12 + 8 * i)[0]
                _, want, _, _ = query_distance(sock, src, t)
                check(dist == want,
                      f"DISTANCES[{i}] ({src}->{t}) = {dist}, "
                      f"DISTANCE says {want}")

        # --- PATH ---------------------------------------------------------
        print("== path checks ==")
        for (s, t), want in list(zip(pairs, expected))[:8]:
            sock.sendall(frame(OP_PATH, struct.pack("<II", s, t), rid=600))
            r = recv_frame(sock)
            check(r and r["status"] == ST_OK, f"PATH({s},{t}) failed: {r}")
            if not (r and r["status"] == ST_OK):
                continue
            _, dist, _, _ = struct.unpack("<QIBB", r["payload"][:14])
            check(dist == want, f"PATH({s},{t}) dist {dist} != {want}")
            (n,) = struct.unpack_from("<I", r["payload"], 16)
            nodes = struct.unpack_from(f"<{n}I", r["payload"], 20)
            if dist != INF_DIST and n > 0:
                check(nodes[0] == s and nodes[-1] == t,
                      f"PATH({s},{t}) endpoints wrong: {nodes[:3]}...")
                check(n == dist + 1,
                      f"PATH({s},{t}) has {n} nodes for dist {dist}")

        # --- pipelining: burst, responses matched by request id -----------
        print("== pipelining ==")
        burst = list(zip(pairs, expected))[:32]
        for i, ((s, t), _) in enumerate(burst):
            sock.sendall(distance_req(s, t, rid=1000 + i))
        got = {}
        for _ in burst:
            r = recv_frame(sock)
            require(r is not None, "EOF during pipelined burst")
            check(r["status"] == ST_OK, f"pipelined request failed: {r}")
            check(r["rid"] not in got, f"duplicate response id {r['rid']}")
            got[r["rid"]] = parse_distance_reply(r)[1]
        for i, ((s, t), want) in enumerate(burst):
            check(got.get(1000 + i) == want,
                  f"pipelined DISTANCE({s},{t}) = {got.get(1000 + i)}, "
                  f"expected {want}")

        # --- byte-at-a-time delivery --------------------------------------
        print("== partial frames ==")
        f = distance_req(*pairs[0], rid=42)
        for b in f:
            sock.sendall(bytes([b]))
            time.sleep(0.001)
        r = recv_frame(sock)
        check(r and r["status"] == ST_OK and r["rid"] == 42,
              f"byte-at-a-time frame not answered: {r}")
        check(parse_distance_reply(r)[1] == expected[0],
              "byte-at-a-time answer differs")

        # --- STATS --------------------------------------------------------
        sock.sendall(frame(OP_STATS, rid=77))
        r = recv_frame(sock)
        check(r and r["status"] == ST_OK, f"STATS failed: {r}")
        if r and r["status"] == ST_OK:
            vals = STATS_FMT.unpack(r["payload"][:STATS_FMT.size])
            queries_total = vals[2]
            check(queries_total >= len(pairs),
                  f"STATS queries_total {queries_total} too low")

        # --- malformed frames on expendable connections -------------------
        print("== malformed frames ==")
        bad = connect(port)
        bad.sendall(frame(OP_DISTANCE, struct.pack("<II", 0, 1), version=9))
        r = recv_frame(bad)
        check(r and r["status"] == ST_ERROR, f"bad version not ERROR: {r}")
        check(recv_frame(bad) is None, "no close after bad version")
        bad.close()

        bad = connect(port)
        bad.sendall(frame(250, b""))  # unknown op
        r = recv_frame(bad)
        check(r and r["status"] == ST_ERROR, f"unknown op not ERROR: {r}")
        check(recv_frame(bad) is None, "no close after unknown op")
        bad.close()

        bad = connect(port)
        bad.sendall(frame(OP_DISTANCE, struct.pack("<I", 3)))  # short payload
        r = recv_frame(bad)
        check(r and r["status"] == ST_ERROR,
              f"truncated payload not ERROR: {r}")
        # Well-framed, so the connection survives:
        bad.sendall(distance_req(*pairs[0], rid=5))
        r = recv_frame(bad)
        check(r and r["status"] == ST_OK,
              "connection did not survive truncated payload")
        bad.close()

        bad = connect(port)
        bad.sendall(frame(OP_PING, b"\xde\xad\xbe\xef"))  # trailing garbage
        r = recv_frame(bad)
        check(r and r["status"] == ST_ERROR, f"trailing bytes not ERROR: {r}")
        bad.close()

        # Random garbage + a half-frame-then-vanish client: tolerate any
        # outcome except a crash (proved by the victim connection below).
        grng = random.Random(0xBAD)
        for _ in range(5):
            bad = connect(port)
            bad.sendall(bytes(grng.randrange(256)
                              for _ in range(grng.randrange(1, 256))))
            bad.close()
        half = connect(port)
        half.sendall(distance_req(0, 1, rid=1)[:11])
        half.close()
        _, dist, _, _ = query_distance(sock, *pairs[0])
        check(dist == expected[0], "server wrong after garbage streams")

        # --- APPLY_UPDATE: insert / remove round-trip ---------------------
        print("== updates ==")
        far = next(((s, t) for (s, t), d in zip(pairs, expected)
                    if 2 < d < INF_DIST), None)
        if far is None:
            print("   (no pair with dist>2; skipping update phase)")
        else:
            s, t = far
            old = expected[pairs.index(far)]
            epoch0 = query_distance(sock, s, t)[0]
            payload = struct.pack("<BBBBIII", 0, 0, 0, 0, s, t, 1)  # insert
            sock.sendall(frame(OP_UPDATE, payload, rid=801))
            r = recv_frame(sock)
            check(r and r["status"] == ST_OK, f"insert_edge failed: {r}")
            epoch1, dist1, _, _ = query_distance(sock, s, t)
            check(dist1 == 1, f"dist({s},{t}) = {dist1} after inserting edge")
            check(epoch1 == epoch0 + 1,
                  f"epoch {epoch0} -> {epoch1} after one update")
            payload = struct.pack("<BBBBIII", 1, 0, 0, 0, s, t, 0)  # remove
            sock.sendall(frame(OP_UPDATE, payload, rid=802))
            r = recv_frame(sock)
            check(r and r["status"] == ST_OK, f"remove_edge failed: {r}")
            epoch2, dist2, _, _ = query_distance(sock, s, t)
            check(dist2 == old,
                  f"dist({s},{t}) = {dist2} after removal, expected {old}")
            check(epoch2 == epoch1 + 1, "second update did not bump epoch")

        sock.close()

        # --- SIGTERM: clean shutdown --------------------------------------
        print("== shutdown ==")
        proc.send_signal(signal.SIGTERM)
        ret = proc.wait(timeout=30)
        check(ret == 0, f"vicinityd exited {ret} on SIGTERM")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # --- admission: a request wider than the queue is shed BUSY ----------
    # A test cannot hold a live daemon's event loop, and an idle loop runs
    # each request as it arrives, so whether a flood overflows the queue
    # depends on timing. Shedding is checked where it is deterministic: 5
    # query units never fit under --queue-depth=4.
    print("== admission control ==")
    proc2, port2 = start_vicinityd(
        str(vicinityd), graph, index, stderr_file,
        extra=["--queue-depth=4"])
    try:
        s2 = connect(port2)
        src = pairs[0][0]
        wide = [t for _, t in pairs[:5]]
        payload = struct.pack("<II", src, len(wide))
        payload += struct.pack(f"<{len(wide)}I", *wide)
        s2.sendall(frame(OP_DISTANCES, payload, rid=1000))
        r = recv_frame(s2)
        check(r is not None and r["rid"] == 1000 and r["status"] == ST_BUSY,
              f"5-target DISTANCES under --queue-depth=4 not BUSY: {r}")
        check(query_distance(s2, *pairs[0])[1] == expected[0],
              "DISTANCE after the shed fan answered wrong")
        for i in range(64):
            s2.sendall(distance_req(*pairs[i % len(pairs)], rid=i + 1))
        ok = busy = 0
        for _ in range(64):
            r = recv_frame(s2)
            require(r is not None, "EOF during admission flood")
            if r["status"] == ST_OK:
                want = expected[(r["rid"] - 1) % len(pairs)]
                got = parse_distance_reply(r)[1]
                check(got == want,
                      f"flood reply rid={r['rid']}: dist {got}, want {want}")
                ok += 1
            elif r["status"] == ST_BUSY:
                busy += 1
            else:
                check(False, f"flood reply neither OK nor BUSY: {r}")
        print(f"   {ok} ok / {busy} busy")
        s2.close()
        proc2.send_signal(signal.SIGTERM)
        check(proc2.wait(timeout=30) == 0, "admission server unclean exit")
    finally:
        if proc2.poll() is None:
            proc2.kill()
            proc2.wait()

    # --- result cache: STATS counters against a live cached daemon --------
    print("== result cache ==")
    proc3, port3 = start_vicinityd(
        str(vicinityd), graph, index, stderr_file, extra=["--cache-mb=16"])
    try:
        s3 = connect(port3)
        want = dict(zip(pairs, expected))
        hot = [p for p in dict.fromkeys(pairs) if p[0] != p[1]][:8]
        require(len(hot) >= 4, "not enough distinct pairs for cache phase")

        for s, t in hot:  # cold fill
            check(query_distance(s3, s, t)[1] == want[(s, t)],
                  f"cached DISTANCE({s},{t}) wrong on cold fill")
        v0 = read_stats(s3)
        check(v0[STATS_CACHE_INSERTS] >= len(hot),
              f"cold pass inserted {v0[STATS_CACHE_INSERTS]} entries, "
              f"expected >= {len(hot)}")

        for _ in range(3):  # repeats of a warm pair must be hits
            for s, t in hot:
                check(query_distance(s3, s, t)[1] == want[(s, t)],
                      f"cached DISTANCE({s},{t}) wrong on repeat")
        v1 = read_stats(s3)
        hits = v1[STATS_CACHE_HITS] - v0[STATS_CACHE_HITS]
        check(hits >= 3 * len(hot),
              f"repeats hit the cache {hits} times, "
              f"expected >= {3 * len(hot)}")
        check(v1[STATS_CACHE_HIT_RATE] > 0.0,
              "lifetime cache_hit_rate still 0 after warm repeats")

        # One insert + one remove restores the graph bit-for-bit, but the
        # epoch moved twice: every cached entry is now stale.
        far_hot = next(((s, t) for (s, t) in hot if want[(s, t)] > 1), None)
        if far_hot is None:
            print("   (no non-adjacent hot pair; skipping staleness checks)")
        else:
            fu, ft = far_hot
            for kind, w in ((0, 1), (1, 0)):
                s3.sendall(frame(
                    OP_UPDATE,
                    struct.pack("<BBBBIII", kind, 0, 0, 0, fu, ft, w),
                    rid=850 + kind))
                r = recv_frame(s3)
                check(r and r["status"] == ST_OK,
                      f"cache-phase APPLY_UPDATE failed: {r}")
            v2 = read_stats(s3)
            for s, t in hot:  # all stale -> misses, answers unchanged
                check(query_distance(s3, s, t)[1] == want[(s, t)],
                      f"cached DISTANCE({s},{t}) wrong after update")
            v3 = read_stats(s3)
            check(v3[STATS_CACHE_HITS] == v2[STATS_CACHE_HITS],
                  "stale entries served as hits after APPLY_UPDATE")
            stale = v3[STATS_CACHE_MISSES] - v2[STATS_CACHE_MISSES]
            check(stale >= len(hot),
                  f"post-update pass registered {stale} misses, "
                  f"expected >= {len(hot)} (stale entries)")
            for s, t in hot:  # refilled at the new epoch -> hits again
                query_distance(s3, s, t)
            v4 = read_stats(s3)
            rewarm = v4[STATS_CACHE_HITS] - v3[STATS_CACHE_HITS]
            check(rewarm >= len(hot),
                  f"cache re-warmed only {rewarm} of {len(hot)} pairs "
                  f"after APPLY_UPDATE")
            print(f"   hits {v4[STATS_CACHE_HITS]} "
                  f"misses {v4[STATS_CACHE_MISSES]} "
                  f"inserts {v4[STATS_CACHE_INSERTS]} "
                  f"hit_rate {v4[STATS_CACHE_HIT_RATE]:.3f}")
        s3.close()
        proc3.send_signal(signal.SIGTERM)
        check(proc3.wait(timeout=30) == 0, "cached server unclean exit")
    finally:
        if proc3.poll() is None:
            proc3.kill()
            proc3.wait()

    # --- graceful drain: SIGTERM with a burst in flight --------------------
    # Every request the server accepted before the signal must be answered
    # (OK, or BUSY if shed by admission) before the process exits 0 —
    # a kill that drops accepted work is the bug this phase pins.
    print("== drain under load ==")
    proc4, port4 = start_vicinityd(
        str(vicinityd), graph, index, stderr_file,
        extra=["--drain-timeout-ms=15000"])
    try:
        s4 = connect(port4)
        # Synchronous round-trip before the burst: drain disarms the
        # listen fd, so a connection still in the accept backlog at
        # SIGTERM time is never served. The ping guarantees acceptance;
        # after that every pipelined request is answered (OK or BUSY).
        s4.sendall(frame(OP_PING, rid=7777))
        r = recv_frame(s4)
        check(r is not None and r["rid"] == 7777,
              f"pre-drain ping failed: {r}")
        n_inflight = 200
        for i in range(n_inflight):
            s4.sendall(distance_req(*pairs[i % len(pairs)], rid=i + 1))
        time.sleep(0.05)  # let the io thread ingest the burst
        proc4.send_signal(signal.SIGTERM)
        delivered = set()
        while True:
            r = recv_frame(s4)
            if r is None:
                break  # server closed after the last reply
            check(r["status"] in (ST_OK, ST_BUSY),
                  f"drain delivered a non-OK/BUSY reply: {r}")
            delivered.add(r["rid"])
        check(len(delivered) == n_inflight,
              f"drain delivered {len(delivered)}/{n_inflight} "
              f"in-flight replies")
        s4.close()
        ret = proc4.wait(timeout=30)
        check(ret == 0, f"vicinityd exited {ret} after drain")
        print(f"   {len(delivered)}/{n_inflight} replies delivered")
    finally:
        if proc4.poll() is None:
            proc4.kill()
            proc4.wait()

    # --- benign fault schedule: correctness is fault-invariant -------------
    print("== fault injection ==")
    proc5, port5 = start_vicinityd(
        str(vicinityd), graph, index, stderr_file,
        env={"VICINITY_FAULT_INJECT":
             "seed=9,eintr=0.05,eagain=0.05,short=0.25"})
    try:
        s5 = connect(port5)
        for (s, t), want in zip(pairs, expected):
            dist = query_distance(s5, s, t)[1]
            check(dist == want,
                  f"DISTANCE({s},{t}) = {dist} under faults, want {want}")
        s5.close()
        proc5.send_signal(signal.SIGTERM)
        check(proc5.wait(timeout=30) == 0,
              "faulted server unclean exit on SIGTERM")
    finally:
        if proc5.poll() is None:
            proc5.kill()
            proc5.wait()

    # --- idle timeout + slow-loris eviction --------------------------------
    print("== idle / slow-loris defense ==")
    proc6, port6 = start_vicinityd(
        str(vicinityd), graph, index, stderr_file,
        extra=["--idle-timeout-ms=700"])
    try:
        idle = connect(port6)            # connects, then says nothing
        loris = connect(port6)
        loris.sendall(distance_req(0, 1, rid=1)[:9])  # half a header, stall
        active = connect(port6)          # keeps talking; must survive
        deadline = time.time() + 15
        evicted = 0
        # Poll timeouts well under the idle budget: the keep-alive query on
        # `active` must land at least once per 700 ms idle window.
        idle.settimeout(0.1)
        loris.settimeout(0.1)
        while evicted < 2 and time.time() < deadline:
            query_distance(active, *pairs[0])  # keep-alive traffic
            for victim in (idle, loris):
                if victim is None:
                    continue
                try:
                    if victim.recv(1) == b"":
                        evicted += 1
                        victim.close()
                        if victim is idle:
                            idle = None
                        else:
                            loris = None
                except socket.timeout:
                    pass
        check(evicted == 2,
              f"only {evicted}/2 stalled connections evicted by "
              f"--idle-timeout-ms")
        vals = read_stats(active)
        check(vals[STATS_IDLE_CLOSES] + vals[STATS_SLOW_CLIENT_CLOSES] >= 2,
              f"STATS did not count the evictions: "
              f"idle={vals[STATS_IDLE_CLOSES]} "
              f"slow={vals[STATS_SLOW_CLIENT_CLOSES]}")
        # The talkative connection was never evicted and still answers.
        check(query_distance(active, *pairs[0])[1] == expected[0],
              "active connection broken by idle sweeps")
        active.close()
        proc6.send_signal(signal.SIGTERM)
        check(proc6.wait(timeout=30) == 0, "idle-phase server unclean exit")
    finally:
        if proc6.poll() is None:
            proc6.kill()
            proc6.wait()
        stderr_file.close()

    if FAILURES:
        print(f"\nserver-e2e: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("\nserver-e2e: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
