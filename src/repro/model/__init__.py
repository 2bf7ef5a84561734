"""The asynchronous shared-memory model.

This package implements the model of computation the paper's proof is
stated in (Section 2 of Zhu, STOC 2016):

* processes are deterministic automata communicating only through shared
  base objects (:mod:`repro.model.process`, :mod:`repro.model.program`);
* base objects are read/write registers, plus the historyless and stronger
  objects used by the companion results (:mod:`repro.model.registers`);
* a *configuration* is the state of every process plus the contents of
  every object (:mod:`repro.model.configuration`);
* a *schedule* is a finite sequence of process identifiers; applying a
  schedule to a configuration yields an execution
  (:mod:`repro.model.schedule`, :mod:`repro.model.system`).

Everything is deterministic given (inputs, coin tapes, schedule), so
executions are replayable and configurations are hashable values -- the
properties the valency oracle and the covering adversary rely on.
"""

from repro.model.operations import (
    CoinFlip,
    CompareAndSwap,
    FetchAndAdd,
    Marker,
    Operation,
    Read,
    Step,
    Swap,
    TestAndSet,
    Write,
)
from repro.model.registers import (
    ObjectKind,
    ObjectSpec,
    apply_operation,
    cas_object,
    faa_object,
    is_historyless,
    register,
    swap_register,
    tas_object,
)
from repro.model.env import Env
from repro.model.process import Protocol, DecidedState
from repro.model.program import (
    Program,
    ProgramBuilder,
    ProgramProtocol,
    ProcState,
)
from repro.model.configuration import Configuration
from repro.model.schedule import (
    Schedule,
    concat,
    round_robin,
    solo,
)
from repro.model.system import InterpretedSystem, System

__all__ = [
    "CoinFlip",
    "CompareAndSwap",
    "Configuration",
    "DecidedState",
    "Env",
    "FetchAndAdd",
    "InterpretedSystem",
    "Marker",
    "ObjectKind",
    "ObjectSpec",
    "Operation",
    "ProcState",
    "Program",
    "ProgramBuilder",
    "ProgramProtocol",
    "Protocol",
    "Read",
    "Schedule",
    "Step",
    "Swap",
    "System",
    "TestAndSet",
    "Write",
    "apply_operation",
    "cas_object",
    "concat",
    "faa_object",
    "is_historyless",
    "register",
    "round_robin",
    "solo",
    "swap_register",
    "tas_object",
]
