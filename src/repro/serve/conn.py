"""One framed-connection layer for the serve stack.

Both servers of the stack — the evaluation worker
(:class:`~repro.serve.remote.WorkerServer`) and the search daemon
(:class:`~repro.serve.server.SearchServer`) — and both of their clients
(:class:`~repro.serve.remote.SharedRemotePool`,
:class:`~repro.serve.server.SearchClient`) speak the length-prefixed,
CRC-checked JSON frames of :mod:`repro.spec.wire` behind the same
hello/welcome handshake.  This module owns that connection policy once:

* :class:`Listener` — binds, accepts, and keeps the registry of live
  sessions.  A session joins the registry only after its handshake
  succeeded, so nothing a server broadcasts can reach a peer before its
  ``welcome``.  :meth:`Listener.stop` wakes and joins the accept thread
  (the port is released at once), then closes and joins every session.
* :class:`Session` — one accepted connection: the handshake (protocol,
  wire version, token), one buffered reader for the connection's whole
  life, ``ping`` → ``pong``, ``bye``, and one send path — a FIFO queue
  drained by a writer thread, so no sender ever blocks on a slow peer.
  Servers subclass it and implement :meth:`Session.handle`.
* :func:`dial` — the client half: connect, say hello, check the
  ``welcome``.

A server is a :class:`Listener` whose sessions handle their frames:

>>> from repro.spec.wire import frame_message, read_frame
>>> class EchoSession(Session):
...     def handle(self, kind, message):
...         self.send({"type": "echo", "body": message.get("body")})
...         return True
>>> class EchoServer(Listener):
...     session_class = EchoSession
>>> server = EchoServer()
>>> server.listen()
>>> sock, rfile, welcome = dial(server.address, None, 5.0, "echo server")
>>> welcome["type"]
'welcome'
>>> sock.sendall(frame_message({"type": "say", "body": "hi"}))
>>> read_frame(rfile)["body"]
'hi'
>>> close_socket(sock); server.stop()
"""

from __future__ import annotations

import contextlib
import hmac
import queue
import socket
import threading
import time
import warnings

from ..parallel import parse_address
from ..spec.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    WIRE_VERSION,
    error_message,
    frame_message,
    hello_message,
    read_frame,
    welcome_message,
)

__all__ = [
    "HANDSHAKE_TIMEOUT_S",
    "Listener",
    "Session",
    "close_socket",
    "dial",
]

#: handshake must complete within this many seconds on both ends — a
#: client talking to a wrong port, or a port-scanner talking to a
#: server, times out cleanly instead of hanging either side
HANDSHAKE_TIMEOUT_S = 10.0

#: closing a session waits at most this long for its queued frames to
#: leave; a peer that stopped reading loses the rest
FLUSH_TIMEOUT_S = 5.0


def close_socket(sock: socket.socket) -> None:
    """Shut down and close ``sock``, ignoring a peer that is already
    gone.  ``shutdown`` ends the TCP stream even while a ``makefile``
    reader still holds the descriptor open."""
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    with contextlib.suppress(OSError):
        sock.close()


def dial(address: str, token: str | None, timeout: float, peer: str):
    """Connect to ``address`` and complete the hello/welcome handshake.

    Returns ``(sock, rfile, welcome)``: the socket in blocking mode, the
    one buffered reader for the connection's whole life (the welcome
    and every later frame come off the same buffer, so no read-ahead
    byte is stranded), and the welcome frame.  Every failure — an
    unreachable address, a dropped handshake, a refusal, a peer from
    another protocol build — raises ``ConnectionError`` naming ``peer``
    (``"worker"``, ``"server"``) and ``address``.
    """
    host, port = parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectionError(f"cannot reach {peer} {address}: {exc}") \
            from exc
    try:
        rfile = sock.makefile("rb")
        sock.sendall(frame_message(hello_message(token)))
        reply = read_frame(rfile)
    except (OSError, ValueError) as exc:
        close_socket(sock)
        raise ConnectionError(
            f"handshake with {peer} {address} failed: {exc}"
        ) from exc
    if reply is None or reply.get("type") != "welcome":
        detail = (reply or {}).get("error", "connection closed")
        refusal = f"refused the handshake: {detail}"
    elif reply.get("protocol") != PROTOCOL_VERSION:
        refusal = (
            f"speaks protocol {reply.get('protocol')!r}, this client "
            f"speaks {PROTOCOL_VERSION}; upgrade the older build"
        )
    else:
        sock.settimeout(None)
        return sock, rfile, reply
    close_socket(sock)
    raise ConnectionError(f"{peer} {address} {refusal}")


class Session(threading.Thread):
    """One accepted connection on a :class:`Listener`.

    This thread performs the handshake, then reads frames until EOF, a
    ``bye``, or :meth:`handle` returning false; a writer thread sends
    every queued frame in FIFO order.  :meth:`close` flushes the queue
    before it closes the socket, so a frame queued before the close is
    delivered to a peer that is still reading.
    """

    def __init__(self, server: "Listener", sock: socket.socket,
                 peer) -> None:
        super().__init__(daemon=True, name=f"repro-{server.role}-{peer}")
        self.server = server
        self.sock = sock
        self.peer = peer
        #: set once the handshake succeeded: only joined sessions are
        #: listed by :meth:`Listener.sessions`
        self.joined = False
        self.closed = False
        self._out: queue.SimpleQueue = queue.SimpleQueue()
        self._writer: threading.Thread | None = None

    # -- the one send path -----------------------------------------------
    def send(self, message: dict) -> None:
        """Frame ``message`` and queue it for the writer thread (never
        blocks on the peer)."""
        self._out.put(frame_message(message))

    def send_raw(self, data: bytes) -> None:
        """Queue pre-framed bytes to be sent verbatim (the chaos harness
        puts a deliberately checksum-corrupt frame on the wire)."""
        self._out.put(data)

    def close(self) -> None:
        """Flush the queued frames, then close the connection
        (idempotent; waits at most :data:`FLUSH_TIMEOUT_S`)."""
        self.closed = True
        self._out.put(None)
        writer = self._writer
        if writer is not None and writer is not threading.current_thread():
            writer.join(timeout=FLUSH_TIMEOUT_S)
        close_socket(self.sock)

    def _write_loop(self) -> None:
        while True:
            data = self._out.get()
            if data is None:
                return
            try:
                self.sock.sendall(data)
            except (OSError, ValueError):
                self.close()
                return

    # -- handshake + read loop -------------------------------------------
    def run(self) -> None:
        try:
            self.sock.settimeout(HANDSHAKE_TIMEOUT_S)
            rfile = self.sock.makefile("rb")
            refusal = self._refusal(read_frame(rfile, self.server.max_frame))
            # the handshake reply goes out before the writer starts and
            # before the session joins the registry: it is always the
            # first frame the peer reads
            self.sock.sendall(frame_message(
                welcome_message(capacity=1) if refusal is None
                else error_message(refusal)
            ))
            if refusal is not None:
                self.server._log(f"refused {self.peer}: {refusal}")
                return
            self.sock.settimeout(None)
            writer = threading.Thread(
                target=self._write_loop, daemon=True,
                name=f"{self.name}-write",
            )
            writer.start()
            self._writer = writer  # close() joins only a started writer
            self.server._join(self)
            self.server._log(f"accepted {self.peer}")
            self.serve(rfile)
        except (OSError, ValueError):
            pass  # connection died or stream corrupt: session over
        finally:
            self.close()
            self.server._session_done(self)

    def _refusal(self, hello: dict | None) -> str | None:
        """Why the handshake is refused, or None to welcome the peer."""
        role = self.server.role
        if hello is None or hello.get("type") != "hello":
            return "expected hello frame"
        if hello.get("protocol") != PROTOCOL_VERSION:
            return (
                f"protocol version mismatch: client speaks "
                f"{hello.get('protocol')!r}, {role} speaks "
                f"{PROTOCOL_VERSION}; upgrade the older build"
            )
        if hello.get("version") != WIRE_VERSION:
            return (
                f"unsupported wire version {hello.get('version')!r} "
                f"({role} speaks {WIRE_VERSION})"
            )
        token, expected = hello.get("token"), self.server.token
        if expected is not None and not (
            isinstance(token, str) and hmac.compare_digest(token, expected)
        ):
            self.server.auth_failures += 1
            return "bad auth token"
        return None

    def serve(self, rfile) -> None:
        """Read frames until EOF, ``bye``, or a handler ends the
        session."""
        while not self.closed:
            message = read_frame(rfile, self.server.max_frame)
            if message is None or not self.receive(message):
                return

    def receive(self, message: dict) -> bool:
        """React to one frame; returns false to end the session.
        Connection-scoped frames are answered here, the rest go to
        :meth:`handle`."""
        kind = message.get("type")
        if kind == "ping":
            self.send({"type": "pong", "t": message.get("t")})
            return True
        return kind != "bye" and self.handle(kind, message)

    def handle(self, kind, message: dict) -> bool:
        """Handle one protocol frame; returns false to end the
        session."""
        raise NotImplementedError


class Listener:
    """A TCP listener running one :class:`Session` per connection.

    ``port=0`` binds an ephemeral port — :attr:`port` and
    :attr:`address` read it back after :meth:`listen`.  ``token``
    (optional) is a shared secret every client must echo in its hello
    frame; a mismatch is refused before any payload is decoded.
    Subclasses pick the session type (``session_class``) and the name
    their threads, log lines and refusals carry (``role``).
    """

    #: the :class:`Session` subclass each accepted connection runs
    session_class = Session
    role = "server"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        max_frame: int = MAX_FRAME_BYTES,
        verbose: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.max_frame = max_frame
        self.verbose = verbose
        #: handshakes refused for a bad token
        self.auth_failures = 0
        #: session threads that survived :meth:`stop`'s join timeout —
        #: tracked and surfaced instead of silently abandoned
        self.leaked_sessions: list = []
        self._server_sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        #: every accepted session, joined or still in its handshake
        self._sessions: set[Session] = set()
        self._registry_lock = threading.Lock()
        self._stopping = False

    @property
    def address(self) -> str:
        """``host:port`` as clients should dial it."""
        return f"{self.host}:{self.port}"

    def listen(self) -> None:
        """Bind and begin accepting connections."""
        sock = socket.create_server((self.host, self.port))
        self.port = sock.getsockname()[1]
        self._server_sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"repro-{self.role}-accept-{self.port}",
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = self._server_sock.accept()
            except OSError:
                return  # listener shut down
            session = self.session_class(self, sock, peer)
            with self._registry_lock:
                stopping = self._stopping
                if not stopping:
                    self._sessions.add(session)
            if stopping:
                session.close()
                return
            session.start()

    def sessions(self) -> list:
        """The sessions that completed their handshake (a snapshot)."""
        with self._registry_lock:
            return [s for s in self._sessions if s.joined]

    def _join(self, session: Session) -> None:
        with self._registry_lock:
            session.joined = True

    def _session_done(self, session: Session) -> None:
        with self._registry_lock:
            self._sessions.discard(session)

    def stop_accepting(self) -> None:
        """Refuse new connections: wake and join the accept thread, and
        release the port."""
        with self._registry_lock:
            self._stopping = True
        if self._server_sock is not None:
            # shutdown wakes a thread blocked in accept(); close alone
            # leaves the socket listening until that call returns
            close_socket(self._server_sock)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def stop(self) -> None:
        """Stop accepting, then close every session and join it.

        A session thread that outlives the join timeout is *leaked*: it
        is recorded in :attr:`leaked_sessions`, logged, and surfaced as
        a ``RuntimeWarning`` — never silently abandoned.
        """
        self.stop_accepting()
        with self._registry_lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.close()
        for session in sessions:
            session.join(timeout=5)
        leaked = [s for s in sessions if s.is_alive()]
        if leaked:
            self.leaked_sessions.extend(leaked)
            names = [s.name for s in leaked]
            self._log(f"leaked {len(leaked)} session thread(s): {names}")
            warnings.warn(
                f"{type(self).__name__}.stop: {len(leaked)} session "
                f"thread(s) still running after the join timeout: {names}",
                RuntimeWarning, stacklevel=2,
            )

    def serve_forever(self) -> None:
        """Block until the listener stops (the CLI main loop)."""
        while not self._stopping:
            time.sleep(0.2)

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[{self.role} {self.address}] {message}", flush=True)
