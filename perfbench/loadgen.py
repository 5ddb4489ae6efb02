"""serve-fed's load generator: one process, one thread, two connections.

* one keep-alive connection, pipelined, open loop: requests are sent
  at seeded Poisson arrival times whatever the server does, and each is
  timed from when it was *due* to the last byte of its response;
* one binary ``/v1/watch`` stream filtered to a block of racks, whose
  frames are timed against the wall time their simulated timestamp was
  due on the server's pacing schedule.

Protocol with the system-under-test process: it is started with the
port and inputs as arguments, prints ``READY`` once both connections
are open, reads one JSON line holding the schedule anchor
(``wall0``, ``sim0``, ``pace``; ``time.monotonic`` is one clock for
every process on the machine), runs the window, and prints its results
as one JSON line.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROUTES, bootstrap  # noqa: E402

bootstrap()

from repro.gateway.wire import (BINARY_CONTENT_TYPE,  # noqa: E402
                                BinaryWire, JsonWire)
from repro.monitoring.monitors import builtin_registry  # noqa: E402
from repro.remote.nodeset import NodeSet  # noqa: E402

#: how long after the window outstanding responses may still arrive.
DRAIN_S = 5.0


def plan_requests(seed: int, seconds: float, rps: float,
                  hosts: List[str], racks: int
                  ) -> List[Tuple[float, str, str, bool]]:
    """(offset from wall0, route key, path, binary accept) per request."""
    rng = random.Random(f"perfbench-load-{seed}")
    keys = list(ROUTES)
    weights = [share for _, share in ROUTES.values()]
    out = []
    t = rng.expovariate(rps)
    while t < seconds:
        key = rng.choices(keys, weights)[0]
        host = rng.choice(hosts)
        if key == "summary":
            path = "/v1/summary"
        elif key == "host":
            path = f"/v1/hosts/{host}"
        elif key == "query":
            path = (f"/v1/query?nodes=@rack{rng.randrange(racks)}"
                    "&metrics=cpu_util_pct,mem_util_pct,load_1min")
        elif key == "history":
            path = f"/v1/history/{host}/cpu_util_pct?buckets=30"
        elif key == "events_log":
            path = "/v1/events/log?limit=20"
        else:
            path = "/v1/shards"
        out.append((t, key, path, rng.random() < 0.5))
        t += rng.expovariate(rps)
    return out


class Results:
    def __init__(self) -> None:
        #: [route, late ms, latency ms, status, decoded]
        self.requests: List[list] = []
        self.lags_ms: List[float] = []
        self.frames = 0
        self.evicted = False
        self.order_errors = 0
        self.duplicates = 0
        self.decode_errors = 0


async def _read_response(reader: asyncio.StreamReader
                         ) -> Tuple[int, str, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    length = 0
    content_type = ""
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.lower() == "content-length":
            length = int(value)
        elif name.lower() == "content-type":
            content_type = value.strip()
    body = await reader.readexactly(length)
    return status, content_type, body


def _decodes(content_type: str, body: bytes, binary: BinaryWire,
             text: JsonWire) -> bool:
    try:
        frames = binary.decode(body) if content_type == \
            BINARY_CONTENT_TYPE else text.decode(body)
    except (ValueError, KeyError, IndexError, TypeError):
        return False
    return all(len(f) == 4 for f in frames)


async def requests_loop(port: int, plan, wall0: float, res: Results,
                        binary: BinaryWire, text: JsonWire,
                        deadline: float) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    pending: asyncio.Queue = asyncio.Queue()
    # Set once a response times out or fails to parse: the pipelined
    # stream has then lost its framing, so nothing more is sent or read
    # on it and every request still due counts as failed.
    broken = False

    async def sender() -> None:
        for offset, key, path, use_binary in plan:
            due = wall0 + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            if not broken:
                accept = BINARY_CONTENT_TYPE if use_binary \
                    else "application/json"
                writer.write(f"GET {path} HTTP/1.1\r\nHost: perfbench"
                             f"\r\nAccept: {accept}\r\n\r\n"
                             .encode("latin-1"))
            await pending.put((key, due, time.monotonic() - due))
        await pending.put(None)

    async def receiver() -> None:
        nonlocal broken
        while True:
            item = await pending.get()
            if item is None:
                return
            key, due, late = item
            if broken:
                res.requests.append([key, late * 1e3, None, 0, False])
                continue
            remaining = deadline - time.monotonic()
            try:
                status, ctype, body = await asyncio.wait_for(
                    _read_response(reader), timeout=max(remaining, 0.01))
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError, ConnectionError,
                    ValueError, IndexError):
                broken = True
                res.requests.append([key, late * 1e3, None, 0, False])
                continue
            done = time.monotonic()
            ok = _decodes(ctype, body, binary, text)
            if not ok:
                res.decode_errors += 1
            res.requests.append([key, late * 1e3, (done - due) * 1e3,
                                 status, ok])

    try:
        await asyncio.gather(sender(), receiver())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def open_watch(port: int, hosts: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET /v1/watch?hosts={hosts} HTTP/1.1\r\n"
                 f"Host: perfbench\r\nAccept: {BINARY_CONTENT_TYPE}\r\n"
                 "\r\n".encode("latin-1"))
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    if b" 200 " not in head.split(b"\r\n", 1)[0]:
        raise RuntimeError(f"watch refused: {head[:80]!r}")
    return reader, writer


async def watch_loop(reader, writer, anchor: Dict[str, float],
                     res: Results, binary: BinaryWire,
                     until: float) -> None:
    wall0, sim0, pace = anchor["wall0"], anchor["sim0"], anchor["pace"]
    last: Dict[str, float] = {}
    seen = set()
    buffer = b""
    try:
        while True:
            remaining = until - time.monotonic()
            if remaining <= 0:
                return
            try:
                chunk = await asyncio.wait_for(reader.read(65536),
                                               timeout=remaining)
            except asyncio.TimeoutError:
                return
            if not chunk:
                return
            arrived = time.monotonic()
            buffer += chunk
            while len(buffer) >= 4:
                length = int.from_bytes(buffer[:4], "little")
                if len(buffer) < 4 + length:
                    break
                raw, buffer = buffer[:4 + length], buffer[4 + length:]
                try:
                    frames = binary.decode(raw)
                except (ValueError, KeyError, IndexError):
                    res.decode_errors += 1
                    continue
                for kind, host, t, values in frames:
                    if kind == "evicted":
                        res.evicted = True
                    if kind != "delta":
                        continue
                    res.frames += 1
                    key = (host, t, tuple(sorted(values.items())))
                    if key in seen:
                        res.duplicates += 1
                    seen.add(key)
                    if t < last.get(host, float("-inf")):
                        res.order_errors += 1
                    last[host] = t
                    due = wall0 + (t - sim0) / pace
                    res.lags_ms.append((arrived - due) * 1e3)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def main_async(args) -> Dict[str, object]:
    binary = BinaryWire(metric_schema=builtin_registry().names)
    text = JsonWire()
    hosts = list(NodeSet(args.hosts))
    plan = plan_requests(args.seed, args.seconds, args.rps, hosts,
                         args.racks)
    watch_reader, watch_writer = await open_watch(args.port, args.watch)
    print("READY", flush=True)
    # Blocking on purpose: nothing is scheduled before the anchor, and
    # the process stays single-threaded.
    anchor = json.loads(sys.stdin.readline())
    res = Results()
    end = anchor["wall0"] + args.seconds
    await asyncio.gather(
        requests_loop(args.port, plan, anchor["wall0"], res, binary,
                      text, end + DRAIN_S),
        watch_loop(watch_reader, watch_writer, anchor, res, binary,
                   end + 1.5))
    return {"requests": res.requests, "lags_ms": res.lags_ms,
            "frames": res.frames, "evicted": res.evicted,
            "order_errors": res.order_errors,
            "duplicates": res.duplicates,
            "decode_errors": res.decode_errors}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rps", type=float, required=True)
    parser.add_argument("--hosts", required=True,
                        help="NodeSet of every served host")
    parser.add_argument("--racks", type=int, required=True)
    parser.add_argument("--watch", required=True,
                        help="NodeSet the watch stream is filtered to")
    args = parser.parse_args()
    print(json.dumps(asyncio.run(main_async(args))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
