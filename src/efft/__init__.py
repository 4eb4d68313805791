"""efft: parallel one-dimensional real-input FFTs built from serial bins.

One large transform is decomposed by s radix-2 splits into 2**s serial
bin transforms, run and then merged level by level on a worker pool.
Typical use:

    import efft

    plan = efft.plan_create(n=2**22, splits=3, workers=8)
    with efft.handle_create(plan) as handle:
        handle.data[:] = samples          # n float32 values
        efft.run_transform(handle)
        spectrum = handle.result          # packed: R0, R_{n/2}, R1, I1, ...
"""

from . import errors
from .bench import RunMetrics, flops_model, peak_memory_probe
from .core import (
    PermSpectrum,
    TransformHandle,
    TransformPlan,
    handle_create,
    plan_create,
    run_transform,
)
from .leaf_dft import LeafKernel
from .oracle import l2_norm, naive_dft, naive_dft_at, pack_perm
from .recombine import reassemble_pair_basic, reassemble_pair_inplace
from .scatter import build_scatter_index, scatter

__version__ = "0.1.0"

__all__ = [
    "PermSpectrum",
    "RunMetrics",
    "TransformHandle",
    "TransformPlan",
    "LeafKernel",
    "build_scatter_index",
    "errors",
    "flops_model",
    "handle_create",
    "l2_norm",
    "naive_dft",
    "naive_dft_at",
    "pack_perm",
    "peak_memory_probe",
    "plan_create",
    "reassemble_pair_basic",
    "reassemble_pair_inplace",
    "run_transform",
    "scatter",
]
