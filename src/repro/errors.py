"""Exception hierarchy shared across the library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ModelError(ReproError):
    """A protocol or system was driven in a way the model forbids."""


class ProcessHaltedError(ModelError):
    """A step was scheduled for a process that has already halted/decided."""


class InvalidOperationError(ModelError):
    """An operation was applied to an object kind that does not support it."""


class ProgramError(ModelError):
    """A DSL program is malformed (bad label, bad register index, ...)."""


class ExplorationLimitError(ReproError):
    """An exhaustive exploration exceeded its configured budget.

    The valency oracle raises this instead of guessing: a bounded search
    that found only one decidable value is *not* evidence of univalence
    unless the reachable graph was fully exhausted.
    """

    def __init__(self, message: str, visited: int = 0):
        super().__init__(message)
        self.visited = visited

    def __reduce__(self):
        # Default exception pickling only replays ``args`` -- crossing a
        # worker-process boundary would drop ``visited``.
        return (type(self), (self.args[0], self.visited))


class BudgetExhausted(ReproError):
    """A guarded run spent its step budget or wall-clock deadline.

    Unlike :class:`ExplorationLimitError` (one exhaustive search overran
    its configuration cap), this is the *global* watchdog verdict: the
    whole construction was stopped.  ``partial`` may carry a
    resumable partial-progress report (see :mod:`repro.faults.resume`).
    """

    def __init__(
        self,
        message: str,
        spent_steps: int = 0,
        elapsed: float = 0.0,
        partial=None,
    ):
        super().__init__(message)
        self.spent_steps = spent_steps
        self.elapsed = elapsed
        self.partial = partial

    def __reduce__(self):
        # Preserve the accounting (and any partial-progress report) when
        # the exception is marshalled back from a worker process.
        return (
            type(self),
            (self.args[0], self.spent_steps, self.elapsed, self.partial),
        )


class AdversaryError(ReproError):
    """A lower-bound construction could not complete.

    Against a *correct* consensus protocol the constructions of Lemmas 1-4
    always succeed; this error therefore signals either a protocol bug
    (the adversary may attach a violation witness) or an exploration limit.
    """


class ViolationError(ReproError):
    """A protocol violated its specification; carries a witness execution."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness

    def __reduce__(self):
        # Keep the witness schedule across a worker-process boundary --
        # the exit-code contract (exit 2 with a replayable witness)
        # must hold no matter which process found the violation.
        return (type(self), (self.args[0], self.witness))


class CertificateError(ReproError):
    """A lower-bound certificate failed re-validation by replay."""


class JournalError(ReproError):
    """A trace journal is malformed (bad JSON line, schema violation)."""


class SchemaTooNew(JournalError):
    """A journal was written by a newer schema than this reader supports.

    Not corruption: the file is presumably fine, we are just too old to
    interpret it.  Carries both versions so surfaces can print the
    one-line ``journal schema vN > supported vM`` verdict instead of a
    corrupt-journal diagnosis.
    """

    def __init__(self, message: str, found: int = 0, supported: int = 0):
        super().__init__(message)
        self.found = found
        self.supported = supported

    def __reduce__(self):
        # Keep both version numbers across a worker-process boundary.
        return (type(self), (self.args[0], self.found, self.supported))


class ResilienceError(ReproError):
    """The crash-tolerance layer refused an unsafe operation.

    Raised for *refusals*, not failures: e.g. a checkpoint journal that
    is currently open in another live process cannot be appended to or
    resumed without risking interior tears, so the operation is denied
    with a clean message (CLI exit 1) instead of proceeding into
    corruption.
    """


class KernelError(ReproError):
    """The compiled exploration kernel hit an internal invariant failure.

    Raised when a packed row cannot represent a configuration (field
    overflow), or a spilled segment fails its checksum on reload.  The
    kernel never silently degrades mid-exploration -- budget ticks have
    already been billed, so a fallback would double-bill them; instead
    the error surfaces and the caller may retry on an
    ``InterpretedSystem``.
    """


class KernelSpillError(KernelError):
    """An on-disk frontier/visited segment is corrupt or unreadable.

    Carries the path of the quarantined segment so operators can inspect
    the evidence (the file is renamed ``*.corrupt-N``, mirroring
    :class:`repro.parallel.cache.ValencyCache` poisoning handling).
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path

    def __reduce__(self):
        # Keep the quarantine path when crossing a worker boundary.
        return (type(self), (self.args[0], self.path))


class LintError(ReproError):
    """A static analysis could not run (bad target, malformed report).

    Distinct from a *finding*: diagnostics are data
    (:class:`repro.lint.Diagnostic`, CLI exit 2); this error means the
    lint itself failed (CLI exit 1).
    """


class AbsintError(ReproError):
    """The abstract interpreter failed or a static certificate is stale.

    Distinct from a *verdict*: refutations are data
    (:class:`repro.absint.StaticVerdict`, CLI exit 2); this error means
    the analysis itself could not run, a serialized
    :class:`repro.absint.StaticCertificate` no longer matches a fresh
    analysis of its protocol, or a soundness cross-check caught the
    analyzer under-approximating (which is always a bug, never a
    finding).
    """

