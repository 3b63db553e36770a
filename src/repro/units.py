"""Unit helpers, physical constants and the count rule.

All internal times are in **milliseconds**, sizes in **bytes**, bandwidths
in **bytes per millisecond**.  These helpers exist so that call sites can
say ``GB(80)`` or ``gbps_to_bytes_per_ms(400)`` instead of sprinkling
magic powers of two around.
"""

from __future__ import annotations

from numbers import Integral

# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------


def is_int(v) -> bool:
    """Whether ``v`` is an integer, numpy's included.  ``bool`` is an
    ``Integral`` that equals and hashes like 0 or 1, so ``True`` would
    pass as a count and alias ``1`` in every cache key; it is not."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def positive_int(v) -> bool:
    """Whether ``v`` is an integer >= 1 (:func:`is_int`'s rule)."""
    return is_int(v) and v >= 1


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------

KB = 2**10
MB = 2**20
GB = 2**30


def kb(n: float) -> float:
    """``n`` kibibytes in bytes."""
    return float(n) * KB


def mb(n: float) -> float:
    """``n`` mebibytes in bytes."""
    return float(n) * MB


def gb(n: float) -> float:
    """``n`` gibibytes in bytes."""
    return float(n) * GB


# ---------------------------------------------------------------------------
# Times
# ---------------------------------------------------------------------------

MS = 1.0
US = 1e-3
SECOND = 1e3


def seconds(ms_value: float) -> float:
    """Convert milliseconds to seconds."""
    return ms_value / SECOND


def ms_from_seconds(s: float) -> float:
    """Convert seconds to milliseconds."""
    return s * SECOND


# ---------------------------------------------------------------------------
# Bandwidths
# ---------------------------------------------------------------------------


def gbps_to_bytes_per_ms(gbit_per_s: float) -> float:
    """Convert network bandwidth in Gbit/s to bytes/ms.

    400 Gb/s (EFA on p4de) -> 400e9 bits/s = 50e9 B/s = 50e6 B/ms.
    """
    return gbit_per_s * 1e9 / 8.0 / 1e3


def gBps_to_bytes_per_ms(gbyte_per_s: float) -> float:
    """Convert bandwidth in GB/s (bytes!) to bytes/ms.

    600 GB/s (NVSwitch) -> 600e9 B/s = 600e6 B/ms.
    """
    return gbyte_per_s * 1e9 / 1e3


def tflops_to_flops_per_ms(tflops: float) -> float:
    """Convert TFLOP/s to FLOP/ms."""
    return tflops * 1e12 / 1e3


def fmt_ms(t: float) -> str:
    """Human-readable time."""
    if t >= 1e3:
        return f"{t / 1e3:.2f} s"
    if t >= 1.0:
        return f"{t:.2f} ms"
    return f"{t * 1e3:.1f} us"


def fmt_bytes(n: float) -> str:
    """Human-readable size."""
    if n >= GB:
        return f"{n / GB:.2f} GiB"
    if n >= MB:
        return f"{n / MB:.2f} MiB"
    if n >= KB:
        return f"{n / KB:.2f} KiB"
    return f"{n:.0f} B"
