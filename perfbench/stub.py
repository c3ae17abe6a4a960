"""Loopback chat-completion stub with its own counters.

Serves POST requests in the common chat-completion shape on 127.0.0.1.
Each answer is looked up in a script keyed by the query text after the
last "[SQL_1] " marker of the prompt (or "[SQL_2] " for the second
explain prompt); a prompt without either marker is a classifying prompt,
and the stub echoes back the text it was asked to classify. Every answer
is sent after a fixed service time.

GET /stats returns the counters: POST requests served, connections
accepted for them, and the service time of each request, measured from
the request line being read to the response being flushed.

Usage:
    python3 perfbench/stub.py SCRIPT_JSON SERVICE_MS PORT_FILE
The port is written to PORT_FILE once the socket listens; the server
runs until terminated.
"""

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, script, service_s):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.script = script
        self.service_s = service_s
        self.lock = threading.Lock()
        self.connections = 0
        self.stats_connections = 0
        self.requests = 0
        self.service_ms = []

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def answer(self, prompt):
        for marker, table in (("[SQL_1] ", "sql1"), ("[SQL_2] ", "sql2")):
            at = prompt.rfind(marker)
            if at >= 0:
                sql = prompt[at + len(marker):].split("\n", 1)[0]
                return self.script[table].get(sql, "Unknown")
        head, _, tail = prompt.partition("### Text\n")
        return tail.rsplit("\n\n### Answer", 1)[0] if head else "Unknown"


class StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        started = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        text = self.server.answer(request["messages"][-1]["content"])
        body = json.dumps({
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": length // 4,
                      "completion_tokens": len(text) // 4},
        }).encode("utf-8")
        time.sleep(self.server.service_s)
        self._send(body)
        elapsed = (time.perf_counter() - started) * 1000.0
        with self.server.lock:
            self.server.requests += 1
            self.server.service_ms.append(elapsed)

    def do_GET(self):
        server = self.server
        with server.lock:
            server.stats_connections += 1
            stats = {"requests": server.requests,
                     "connections": server.connections
                     - server.stats_connections,
                     "service_ms": list(server.service_ms)}
        self._send(json.dumps(stats).encode("utf-8"))

    def _send(self, body):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def log_message(self, format, *args):
        pass


def main(argv):
    script_path, service_ms, port_file = argv
    with open(script_path, encoding="utf-8") as f:
        script = json.load(f)
    server = StubServer(script, float(service_ms) / 1000.0)
    with open(port_file + ".tmp", "w", encoding="utf-8") as f:
        f.write(str(server.server_address[1]))
    # rename so a reader never sees a half-written port
    os.replace(port_file + ".tmp", port_file)
    threading.Thread(target=_exit_with_parent, args=(server,),
                     daemon=True).start()
    try:
        server.serve_forever()
    finally:
        server.server_close()


def _exit_with_parent(server):
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(0.5)
    server.shutdown()


if __name__ == "__main__":
    main(sys.argv[1:])
