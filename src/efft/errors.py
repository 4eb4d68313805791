"""Exception types raised by the transform library."""


class EfftError(Exception):
    """Base class for all library errors."""


class InvalidPlan(EfftError, ValueError):
    """A plan argument is out of range (n, workers or k_tile < 1, splits < 0)."""


class SizeConstraintViolation(EfftError, ValueError):
    """Transform size is not a multiple of 2**(splits+8) outside test mode."""


class BinsizeNotPowerOfTwo(EfftError, ValueError):
    """n / 2**splits is not a power of two >= 4, so no leaf kernel fits."""


class SplitsTooLarge(EfftError, ValueError):
    """2**splits exceeds the transform size."""


class AllocationFailure(EfftError, MemoryError):
    """An aligned signal buffer could not be allocated."""


class SizeMismatch(EfftError, ValueError):
    """A buffer passed to a kernel has the wrong length, dtype or layout."""


class IndexOutOfRange(EfftError, IndexError):
    """Requested coefficient index lies outside [0, M/2]."""


class NotRealSpectrum(EfftError, ValueError):
    """Spectrum packing requires real F_0 and F_{M/2}."""


class ZeroReference(EfftError, ValueError):
    """Relative L2 norm is undefined against an all-zero reference."""


class NonPositiveSize(EfftError, ValueError):
    """The FLOP model needs a positive transform size."""


class HandleClosed(EfftError):
    """A transform was requested on a handle that has been closed."""


class HandleBusy(EfftError):
    """A transform was requested while the handle was running another one."""


class NonFiniteInput(EfftError, ValueError):
    """The input signal contains NaN or infinite values."""
