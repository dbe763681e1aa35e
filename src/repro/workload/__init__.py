"""Workloads: the CPlant/Ross characterization, SWF I/O, the calibrated
synthetic generator, and workload transforms."""

from . import categories, cplant
from .generator import (
    GeneratorConfig,
    generate_cplant_workload,
    random_workload,
    replication_seeds,
)
from .model import Workload
from .swf import SwfFormatError, SwfHeader, read_swf, write_swf
from .transforms import (
    filter_width,
    flash_crowds,
    parent_view,
    remap_runtime_tail,
    shift_to_zero,
    split_by_runtime_limit,
)

__all__ = [
    "GeneratorConfig",
    "SwfFormatError",
    "SwfHeader",
    "Workload",
    "categories",
    "cplant",
    "filter_width",
    "flash_crowds",
    "generate_cplant_workload",
    "parent_view",
    "random_workload",
    "read_swf",
    "remap_runtime_tail",
    "replication_seeds",
    "shift_to_zero",
    "split_by_runtime_limit",
    "write_swf",
]
