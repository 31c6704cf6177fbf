"""Prover backends: a live Isabelle server or a local ground oracle.

`start_session` opens one problem's session.  `run_batch` runs its
problems on a `SharedSession` of an Isabelle backend, so they share one
server session: the first to open starts it, every later one attaches
its own connection to it by id, and closing a problem's session drops
only its connection.  A check that times out, is refused or loses its
connection retires its server session, so the next to open starts a
fresh one.  Closing the `SharedSession` stops every server session it
started.  Outside a batch, each session an Isabelle backend opens is
started and stopped by its own connection.
"""

from dataclasses import dataclass
from typing import Union

from ..theory import TheoryDoc
from .isabelle import IsabelleSession, SharedSession
from .messages import CheckReport
from .oracle import OracleSession, Verdicts


@dataclass(frozen=True)
class IsabelleServer:
    """An Isabelle server."""

    host: str
    port: int
    password: str
    session_name: str = "HOL"


@dataclass(frozen=True)
class GroundOracle:
    """The ground oracle at one domain bound.

    Each value holds a verdict table, not a field, that every session it
    opens shares, so the problems of a run configured with it decide each
    distinct entailment once.
    """

    domain_bound: int = 3

    def __post_init__(self):
        if self.domain_bound < 1:
            raise ValueError("domain_bound must be >= 1")
        object.__setattr__(self, "verdicts", Verdicts())


# A batch on an IsabelleServer runs its problems on a SharedSession of it.
ProverBackend = Union[IsabelleServer, SharedSession, GroundOracle]

SessionHandle = Union[IsabelleSession, OracleSession]


def start_session(backend: ProverBackend) -> SessionHandle:
    """Open a prover session for the given backend.

    Isabelle sessions connect, authenticate, and build and start the
    prover session (or attach to the batch's) eagerly, so the errors
    (ConnectFailed, AuthFailed, SessionBuildFailed) surface here rather
    than at first check.
    """
    if isinstance(backend, GroundOracle):
        return OracleSession(backend.domain_bound, backend.verdicts)
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
