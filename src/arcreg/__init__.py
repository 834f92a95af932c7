"""Wait-free single-writer multi-reader atomic registers, verified and benchmarked.

The primary register (``ArcRegister``) coordinates one writer and up to
2**32 - 2 readers through RMW operations on a single packed word, with N+2
pre-allocated snapshot slots and no content copies on the read path.
Baseline registers, a history-based atomicity checker, and a benchmark CLI
round out the package.
"""

from .api import (
    ARC_MAX_READERS,
    CapacityError,
    ConfigurationError,
    InvariantViolation,
    MIN_VERSIONED_SIZE,
    RF_MAX_READERS,
    Register,
    RegisterKind,
    decode_versioned,
    encode_versioned,
)
from .arc import ArcReader, ArcRegister, ArcWriter, pack, unpack
from .atomics import AtomicU64
from .baselines import PetersonRegister, RfRegister, RwlockRegister
from .bench import (
    BenchConfig,
    BenchResult,
    CSV_HEADER,
    emit_csv,
    load_sweep,
    make_register,
    run_bench,
)
from .history import (
    CorruptedHistoryError,
    History,
    InversionViolation,
    OpRecord,
    Recorder,
    RegularityViolation,
    VerificationReport,
    check_history,
    check_integrity,
    check_no_new_old_inversion,
    check_no_past,
)

__all__ = [
    "ARC_MAX_READERS",
    "AtomicU64",
    "ArcReader",
    "ArcRegister",
    "ArcWriter",
    "BenchConfig",
    "BenchResult",
    "CSV_HEADER",
    "CapacityError",
    "ConfigurationError",
    "CorruptedHistoryError",
    "History",
    "InvariantViolation",
    "InversionViolation",
    "MIN_VERSIONED_SIZE",
    "OpRecord",
    "PetersonRegister",
    "RF_MAX_READERS",
    "Recorder",
    "Register",
    "RegisterKind",
    "RegularityViolation",
    "RfRegister",
    "RwlockRegister",
    "VerificationReport",
    "check_history",
    "check_integrity",
    "check_no_new_old_inversion",
    "check_no_past",
    "decode_versioned",
    "emit_csv",
    "encode_versioned",
    "load_sweep",
    "make_register",
    "pack",
    "run_bench",
    "unpack",
]

__version__ = "0.1.0"
