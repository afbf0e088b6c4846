"""The framed-connection layer both servers share (repro.serve.conn):
``stop()`` releases the port — the accept thread is woken and joined,
a new dial is refused, and the same port rebinds at once.  (The
join-after-handshake rule is pinned in ``test_remote.py``.)
"""

import socket

import pytest

from repro.perf import PerfRegistry
from repro.serve.remote import WorkerServer
from repro.serve.server import SearchServer
from repro.spec.wire import frame_message, hello_message, read_frame


def _worker(tmp_path, port=0):
    return WorkerServer(port=port)


def _daemon(tmp_path, port=0):
    return SearchServer(port=port, data_dir=tmp_path / f"d{port}",
                        perf=PerfRegistry())


@pytest.mark.parametrize("make", [_worker, _daemon],
                         ids=["WorkerServer", "SearchServer"])
def test_stop_releases_the_port(make, tmp_path):
    server = make(tmp_path).start()
    host, port = server.host, server.port
    sock = socket.create_connection((host, port), timeout=10)
    try:
        rfile = sock.makefile("rb")
        sock.sendall(frame_message(hello_message()))
        assert read_frame(rfile)["type"] == "welcome"
        server.stop()
        assert not server._accept_thread.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, port), timeout=5).close()
        make(tmp_path, port=port).start().stop()
    finally:
        sock.close()
