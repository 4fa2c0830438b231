"""Serialization graph testing (paper Section 2.7).

Used two ways in this repo:

* as the **test oracle**: every execution recorded by
  :class:`~repro.sgt.history.HistoryRecorder` can be checked for conflict
  serializability by building the multiversion serialization graph
  (:mod:`repro.sgt.mvsg`) and looking for cycles — this is how the test
  suite proves SSI/S2PL executions serializable and exhibits SI's
  anomalies; and
* as a **baseline concurrency control**
  (:class:`~repro.sgt.scheduler.SGTCertifier`): the "elegant but
  impractical" full-graph scheduler the paper contrasts SSI against.
"""

from repro.sgt.history import HistoryRecorder, OpRecord, ScanRecord, TxnRecord
from repro.sgt.mvsg import MVSG, DependencyEdge, build_mvsg
from repro.sgt.checker import check_serializable, SerializationReport
from repro.sgt.scheduler import SGTCertifier

__all__ = [
    "HistoryRecorder",
    "OpRecord",
    "ScanRecord",
    "TxnRecord",
    "MVSG",
    "DependencyEdge",
    "build_mvsg",
    "check_serializable",
    "SerializationReport",
    "SGTCertifier",
]
