"""Exception types with stable machine-readable codes."""

from __future__ import annotations


class NleError(Exception):
    """Base class; ``code`` is part of the CLI/API contract."""

    code = "error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class DimensionMismatch(NleError):
    code = "bad-dims"


class NotHermitian(NleError):
    code = "not-hermitian"


class NotUnitary(NleError):
    code = "not-unitary"


class NotAState(NleError):
    code = "not-a-state"


class NotProductEnsemble(NleError):
    code = "not-product-ensemble"


class GramNotIdentity(NleError):
    code = "gram-not-identity"


class TrivialSet(NleError):
    code = "trivial-set"


class NoSuchEntry(NleError):
    code = "no-such-entry"


class BadParams(NleError):
    code = "bad-params"


class UnsupportedDims(NleError):
    code = "unsupported-dims"


class FileFormatError(NleError):
    code = "bad-file"


class BadValue(NleError):
    """A numerical fault reported instead of a number: a quantifier value not
    finite or outside ``[0, log2 min(d_A, d_B)]`` (delta; big-delta ``[0, inf)``)
    by more than ``TOL.value``, an uncertified capacity, or an ascent out of steps."""

    code = "bad-value"
