"""The serve_batch load: the gridcast_serve daemon and its batching client.

One client process opens CONNECTIONS loopback connections.  On each it
writes BATCH `plan` requests at once, waits for all of their replies and
repeats — a closed loop, like a launcher that blocks until it has the plans
for its next collectives.  Hits may overtake misses (the daemon answers
misses asynchronously), so replies are matched to requests by the fields
they echo, never by position.
"""

import queue
import selectors
import signal
import socket
import subprocess
import threading
import time

from host import BenchError, cpu_seconds, peak_rss_mb

CONNECTIONS = 2
BATCH = 8
REPLY_TIMEOUT_S = 10.0


def request_key(line):
    """(verb, root, size) of a `plan <verb> <root> <size>` request line."""
    _, verb, root, size = line.split()
    return verb, root, size


def reply_key(reply):
    """(verb, root, size) a plan reply echoes, or None for any other line."""
    fields = dict(tok.split("=", 1) for tok in reply.split() if "=" in tok)
    if not reply.startswith("plan ") or not {"verb", "root", "size"} <= fields.keys():
        return None
    return fields["verb"], fields["root"], fields["size"]


def match_batch(sent, replies, requests, expected):
    """Match one batch's replies to its requests.

    sent: stream indices of the batch's requests, in write order.
    replies: (arrival_time, line) pairs in arrival order.
    requests / expected: request lines and expected reply bodies (the reply
    without its trailing hit/miss) by stream index.

    Each reply is matched to the first unanswered request whose fields it
    echoes.  A request fails unless it is answered by a reply equal to its
    expected body plus " hit" or " miss"; `error:` replies, unknown replies
    and missing replies leave requests unanswered.  Returns (times, failed,
    hits): the arrival time of each correctly answered request, the number
    of failed requests, and how many answers were hits.
    """
    open_requests = list(sent)
    times, hits = [], 0
    for t, line in replies:
        key = reply_key(line)
        index = next((i for i in open_requests if request_key(requests[i]) == key), None)
        if key is None or index is None:
            continue
        open_requests.remove(index)
        body, _, status = line.rpartition(" ")
        if body == expected[index] and status in ("hit", "miss"):
            times.append(t)
            hits += status == "hit"
    return times, len(sent) - len(times), hits


class Daemon:
    """A gridcast_serve --port process.  A reader thread drains its stderr
    for its whole life."""

    def __init__(self, binary, args):
        for _ in range(5):
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                self.port = probe.getsockname()[1]
            self.proc = subprocess.Popen(
                [str(binary), f"--port={self.port}", *args],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True)
            self.lines = queue.Queue()
            self.reader = threading.Thread(target=self._pump)
            self.reader.start()
            if self._wait_for_line("listening on"):
                return
            self.stop()  # lost the port to another process: retry
        raise BenchError("gridcast_serve did not start listening")

    def _pump(self):
        for line in self.proc.stderr:
            self.lines.put(line)
        self.lines.put(None)

    def _wait_for_line(self, marker):
        """True once the daemon logs `marker`, False if it exits first."""
        deadline = time.monotonic() + 60.0
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise BenchError(f"gridcast_serve did not report '{marker}' in time")
            if line is None:
                return False
            if marker in line:
                return True

    def peak_rss_mb(self):
        return peak_rss_mb(self.proc.pid)

    def cpu_seconds(self):
        return cpu_seconds(self.proc.pid)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join()
        self.proc.stderr.close()


class BatchClient:
    """CONNECTIONS connections driving BATCH-request batches from a stream.

    Stream batch b holds requests [b*BATCH, (b+1)*BATCH) modulo the stream
    length; batches are handed out in order to whichever connection is
    free.  Every batch is recorded: (connection, stream indices, write
    time, finish time, answer times, failed, hits).
    """

    def __init__(self, port, requests, expected):
        self.requests, self.expected = requests, expected
        self.next_batch = 0
        self.records = []
        self.conns = [socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
                      for _ in range(CONNECTIONS)]
        self.buffers = [b""] * CONNECTIONS

    def close(self):
        for s in self.conns:
            s.close()

    def _send(self, c):
        n = len(self.requests)
        sent = [(self.next_batch * BATCH + j) % n for j in range(BATCH)]
        self.next_batch += 1
        payload = "".join(self.requests[i] + "\n" for i in sent).encode()
        t0 = time.perf_counter()
        self.conns[c].sendall(payload)
        return sent, t0

    def run(self, seconds):
        """Closed loop on every connection until `seconds` have passed;
        returns the records of the batches it ran."""
        first = len(self.records)
        sel = selectors.DefaultSelector()
        pending = {}
        for c, s in enumerate(self.conns):
            sel.register(s, selectors.EVENT_READ, c)
            pending[c] = (*self._send(c), [])
        deadline = time.perf_counter() + seconds
        try:
            while pending:
                events = sel.select(timeout=REPLY_TIMEOUT_S)
                now = time.perf_counter()
                if not events:
                    for c, (sent, t0, replies) in pending.items():
                        self._finish(c, sent, t0, now, replies)
                    break
                for key, _ in events:
                    c = key.data
                    try:
                        data = self.conns[c].recv(65536)
                    except OSError:
                        data = b""  # a dropped connection fails its open requests
                    now = time.perf_counter()
                    sent, t0, replies = pending[c]
                    *lines, self.buffers[c] = (self.buffers[c] + data).split(b"\n")
                    replies += [(now, line.decode()) for line in lines]
                    if data and len(replies) < len(sent):
                        continue
                    self._finish(c, sent, t0, now, replies)
                    del pending[c]
                    if data and now < deadline:
                        pending[c] = (*self._send(c), [])
                    else:
                        sel.unregister(self.conns[c])
        finally:
            sel.close()
        return self.records[first:]

    def _finish(self, c, sent, t0, t_end, replies):
        times, failed, hits = match_batch(sent, replies, self.requests, self.expected)
        self.records.append({"conn": c, "sent": sent, "t0": t0, "t_end": t_end,
                             "latency_s": [t - t0 for t in times],
                             "failed": failed, "hits": hits})

    def stats(self):
        """The daemon's live `stats` reply, as a dict of its counters."""
        s = self.conns[0]
        s.sendall(b"stats\n")
        buf = self.buffers[0]
        while b"\n" not in buf:
            data = s.recv(65536)
            if not data:
                raise BenchError("daemon closed the connection before answering stats")
            buf += data
        line, _, self.buffers[0] = buf.partition(b"\n")
        return dict(tok.split("=", 1) for tok in line.decode().split()[1:])


def spawn_daemon(binary, capacity, warm_path):
    """The serve_batch daemon: every registered scheduler, a plan cache
    smaller than the stream's working set, warmed from the stream's most
    popular signatures."""
    return Daemon(binary, [f"--capacity={capacity}", f"--warm={warm_path}"])

