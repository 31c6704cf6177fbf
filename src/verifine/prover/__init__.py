"""Prover backends: a live Isabelle server or a local ground oracle.

A user configures a plain value, `IsabelleServer` or `GroundOracle`.  A
backend opens its sessions and says how a batch shares them (see
`ProverBackend`), so no caller branches on which kind it is.
"""

import contextlib
from dataclasses import dataclass
from typing import ClassVar, ContextManager, Protocol, Union

from ..theory import TheoryDoc
from .isabelle import IsabelleSession, SharedSession
from .messages import CheckReport
from .oracle import OracleSession

SessionHandle = Union[IsabelleSession, OracleSession]


class ProverBackend(Protocol):
    """Where a run checks its theories.

    `open()` returns one problem's session handle, which the problem
    closes.  `shared()` returns a context manager that yields what one
    batch's problems share, itself a backend, and releases it on exit.
    `opens_remotely` says whether opening waits on the network.

    Each handle an `IsabelleServer` opens starts a server session and
    stops it when closed.  A batch shares a `SharedSession`: its handles
    attach to one server session, and its exit stops every server
    session it started.  Each handle a `GroundOracle` opens keeps
    verdicts of its own.  A batch shares one `OracleSession`: every
    problem opens it as itself, so they share its verdicts, and it holds
    nothing to release.  A backend a batch already shares is shared as
    it is, and only its owner closes it.
    """

    opens_remotely: ClassVar[bool]

    def open(self) -> SessionHandle: ...

    def shared(self) -> ContextManager["ProverBackend"]: ...


@dataclass(frozen=True)
class IsabelleServer:
    """An Isabelle server."""

    host: str
    port: int
    password: str
    session_name: str = "HOL"
    opens_remotely: ClassVar[bool] = True

    def open(self) -> IsabelleSession:
        """Connect, authenticate, and build and start a server session, so
        ConnectFailed, AuthFailed and SessionBuildFailed surface here."""
        return IsabelleSession(self)

    def shared(self) -> ContextManager[SharedSession]:
        return contextlib.closing(SharedSession(self))


@dataclass(frozen=True)
class GroundOracle:
    """The ground oracle at one domain bound."""

    domain_bound: int = 3
    opens_remotely: ClassVar[bool] = False

    def __post_init__(self):
        if self.domain_bound < 1:
            raise ValueError("domain_bound must be >= 1")

    def open(self) -> OracleSession:
        return OracleSession(self.domain_bound)

    def shared(self) -> ContextManager[OracleSession]:
        return contextlib.nullcontext(OracleSession(self.domain_bound))


def start_session(backend: ProverBackend) -> SessionHandle:
    """Open a prover session on the given backend."""
    open_session = getattr(backend, "open", None)
    if open_session is None:
        raise TypeError("unknown backend: %r" % (backend,))
    return open_session()


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
