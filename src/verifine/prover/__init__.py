"""Prover backends: a live Isabelle server or a local ground oracle.

A user configures a plain value, `IsabelleServer` or `GroundOracle`, and
`start_session` opens one problem's session on it.  `run_batch` turns
that value into one shared object for its problems, and drops it when it
returns.

An Isabelle backend becomes a `SharedSession`, so the batch's problems
share one server session: the first to open starts it, every later one
attaches its own connection to it by id, and closing a problem's session
drops only its connection.  A check that times out, is refused or loses
its connection retires its server session, so the next to open starts a
fresh one.  Closing the `SharedSession` stops every server session it
started.  Outside a batch, each session an Isabelle backend opens is
started and stopped by its own connection.

A ground oracle becomes one `OracleSession`, which `start_session` hands
to every problem, so they share its verdicts.  Outside a batch, each
session a `GroundOracle` opens keeps verdicts of its own.
"""

from dataclasses import dataclass
from typing import Union

from ..theory import TheoryDoc
from .isabelle import IsabelleSession, SharedSession
from .messages import CheckReport
from .oracle import OracleSession


@dataclass(frozen=True)
class IsabelleServer:
    """An Isabelle server."""

    host: str
    port: int
    password: str
    session_name: str = "HOL"


@dataclass(frozen=True)
class GroundOracle:
    """The ground oracle at one domain bound."""

    domain_bound: int = 3

    def __post_init__(self):
        if self.domain_bound < 1:
            raise ValueError("domain_bound must be >= 1")


# A batch runs its problems on a SharedSession of an IsabelleServer, or
# on one OracleSession of a GroundOracle.
ProverBackend = Union[IsabelleServer, SharedSession, GroundOracle, OracleSession]

SessionHandle = Union[IsabelleSession, OracleSession]


def start_session(backend: ProverBackend) -> SessionHandle:
    """Open a prover session for the given backend.

    Isabelle sessions connect, authenticate, and build and start the
    prover session (or attach to the batch's) eagerly, so the errors
    (ConnectFailed, AuthFailed, SessionBuildFailed) surface here rather
    than at first check.  An `OracleSession` backend is itself the
    session, for every problem to share.
    """
    if isinstance(backend, GroundOracle):
        return OracleSession(backend.domain_bound)
    if isinstance(backend, OracleSession):
        return backend
    if isinstance(backend, SharedSession):
        return backend.open()
    if isinstance(backend, IsabelleServer):
        return IsabelleSession(
            backend.host, backend.port, backend.password, backend.session_name
        )
    raise TypeError("unknown backend: %r" % (backend,))


def checked_timeout(timeout_s: float) -> float:
    """A per-check wall-clock budget, refused unless it is > 0."""
    if not timeout_s > 0:
        raise ValueError("timeout_s must be > 0")
    return timeout_s


def check_theory(
    handle: SessionHandle, doc: TheoryDoc, timeout_s: float
) -> CheckReport:
    """Check one theory document, enforcing the wall-clock budget."""
    return handle.check_document(doc, checked_timeout(timeout_s))
