"""Partitioned, incremental whole-program optimization for OM.

See :mod:`repro.wpo.driver` for the round structure and the byte-
identity argument, :mod:`repro.wpo.partition` for shard selection,
:mod:`repro.wpo.shard` for the per-shard worker and the module
summaries, and :mod:`repro.wpo.members` for the shard cache entries and
when a module's body is built.
"""

from repro.wpo.driver import WPORun, WPOStats, wpo_rounds
from repro.wpo.partition import Shard, partition_modules

__all__ = ["Shard", "WPORun", "WPOStats", "partition_modules", "wpo_rounds"]
