"""Common error taxonomy of the execution tiers.

Every failure the parallel and distributed tiers can surface derives from
:class:`ReproError`, so callers can catch one base type regardless of which
tier raised it.  The concrete classes used to live next to the machinery
that raises them (:mod:`repro.core.procpool`,
:mod:`repro.distributed.process_comm`, :mod:`repro.core.checkpoint`); they
are re-exported from those locations for compatibility, but this module is
their home and the place where their *structured context* is defined: each
error carries machine-readable attributes (worker/rank id, wave index, gate
span, elapsed vs deadline) in addition to the human-readable message, so the
:mod:`repro.resilience` recovery machinery can route a failure without
parsing strings.

All classes keep :class:`RuntimeError` in their MRO so pre-existing
``except RuntimeError`` call sites continue to work, and all of them pickle
cleanly across process boundaries: the message travels in ``args`` and the
context attributes in ``__dict__`` (both survive the default
``BaseException`` reduce protocol), which matters because worker-side errors
ship to the parent through an ``("err", exc, traceback)`` reply.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "WorkerCrashedError",
    "ProcessCommTimeout",
    "CheckpointError",
    "PoolProtocolError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "JobCancelledError",
]


class ReproError(RuntimeError):
    """Base class of every failure raised by the repro execution tiers.

    Subclasses accept keyword-only *context* attributes alongside the
    message; unset context stays ``None``.  The formatted message embeds the
    context that is set, so logs stay self-describing, while the attributes
    remain available for programmatic routing (e.g. "which worker died?").
    """

    #: Context attribute names, in message-formatting order.  Subclasses
    #: override this tuple; every name becomes a keyword argument and an
    #: instance attribute.
    context_fields: tuple[str, ...] = ()

    def __init__(self, message: str, **context) -> None:
        unknown = set(context) - set(self.context_fields)
        if unknown:
            raise TypeError(
                f"{type(self).__name__} got unknown context {sorted(unknown)}"
            )
        for name in self.context_fields:
            setattr(self, name, context.get(name))
        super().__init__(message)

    def context(self) -> dict:
        """The structured context as a ``{field: value}`` dict (set fields only)."""

        return {
            name: getattr(self, name)
            for name in self.context_fields
            if getattr(self, name) is not None
        }

    def __str__(self) -> str:  # noqa: D105 - message + context suffix
        base = super().__str__()
        details = ", ".join(
            f"{name}={value}" for name, value in self.context().items()
        )
        return f"{base} [{details}]" if details else base


class WorkerCrashedError(ReproError):
    """A pool worker died (or stopped responding) with tasks outstanding.

    Context
    -------
    worker_id:
        Index of the dead worker in its pool (``None`` when the failure is a
        pool-wide receive timeout rather than one identified corpse).
    pid:
        The dead worker's process id.
    exitcode:
        Its exit status, when the process could be reaped.
    rank:
        The simulated-MPI rank the worker served (ranked tier only).
    """

    context_fields = ("worker_id", "pid", "exitcode", "rank")


class ProcessCommTimeout(ReproError):
    """A blocking communicator operation exceeded its deadline.

    Raised by :class:`repro.distributed.process_comm.ProcessCommunicator`
    when an exchange with a peer rank is not complete by the deadline
    (typically because the peer's process died mid-plan), or at once when
    the link to it is reset or closed — the ``OSError`` is then the
    ``__cause__``; inside a rank worker it travels back to the parent as an
    ``("err", ...)`` reply.

    Context
    -------
    rank:
        The rank that timed out waiting.
    peer:
        The peer rank it was exchanging with.
    op:
        The communicator operation: ``"sendrecv"``, the block exchange, is
        the only one.
    elapsed_seconds:
        How long the endpoint actually waited.
    timeout_seconds:
        The configured deadline it compared against.
    """

    context_fields = ("rank", "peer", "op", "elapsed_seconds", "timeout_seconds")


class CheckpointError(ReproError):
    """A checkpoint file is malformed, truncated or inconsistent.

    Every parse failure inside :func:`repro.core.checkpoint.load_checkpoint`
    — bad magic, truncated struct fields, junk metadata JSON, blob lengths
    pointing past end-of-file — is wrapped into this type, so callers probing
    a possibly-torn checkpoint catch one exception instead of pickle/struct
    internals.
    """

    context_fields = ("path",)


class ServiceError(ReproError):
    """Base class of failures raised by the :mod:`repro.serve` service layer.

    Every service-side failure identifies the job and tenant it concerns, so
    multi-tenant clients can route a rejection or a cancelled future without
    parsing the message.

    Context
    -------
    job_id:
        Identifier of the job the failure concerns (``None`` for failures
        raised before a job was admitted, e.g. backpressure rejections).
    tenant:
        The tenant whose request failed.
    """

    context_fields = ("job_id", "tenant")


class ServiceOverloadedError(ServiceError):
    """A submission was rejected by backpressure: a queue bound is full.

    This is the service's explicit load-shedding signal — the caller should
    back off and retry after in-flight jobs complete, not treat it as a bug.

    Context
    -------
    job_id / tenant:
        Inherited from :class:`ServiceError`.
    pending:
        Jobs currently pending in the scope that overflowed.
    limit:
        The configured bound that was hit.
    scope:
        Which bound overflowed: ``"tenant"`` (per-tenant queue) or
        ``"total"`` (service-wide).
    """

    context_fields = ("job_id", "tenant", "pending", "limit", "scope")


class ServiceClosedError(ServiceError):
    """The service is draining or closed and accepts no new work.

    Context
    -------
    job_id / tenant:
        Inherited from :class:`ServiceError`.
    state:
        The lifecycle state that refused the operation ("new", "draining",
        "closing" or "closed").
    """

    context_fields = ("job_id", "tenant", "state")


class JobCancelledError(ServiceError):
    """A job was cancelled before completing; its future resolves to this.

    Context
    -------
    job_id / tenant:
        Inherited from :class:`ServiceError`.
    gates_done:
        Gates the job had executed when the cancellation took effect (0 for
        jobs cancelled while still queued).
    """

    context_fields = ("job_id", "tenant", "gates_done")


class PoolProtocolError(ReproError):
    """The pool/executor API was driven outside its documented protocol.

    Raised for caller mistakes — submitting past the per-worker outstanding
    cap, collecting replies with nothing in flight, driving a closed ranked
    executor, a reply arriving for a ticket nobody submitted — as opposed to
    the environmental failures (:class:`WorkerCrashedError`,
    :class:`ProcessCommTimeout`) that the resilience machinery retries.  A
    protocol error is a bug in the driving code and is never retried.

    Context
    -------
    worker_id:
        Worker (or rank) whose protocol state was violated, when one is
        identifiable.
    op:
        The API operation that detected the violation ("submit",
        "recv_any", ...).
    """

    context_fields = ("worker_id", "op")
