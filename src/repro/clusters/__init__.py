"""Static clustering: RSU cluster heads and the join/leave protocol.

The paper's highway is divided into equal-length clusters, each headed by
an RSU at its centre.  Vehicles joining a segment send a JREQ (broadcast
in overlapped zones) carrying identity, speed, position and direction;
the *appropriate* CH — the one whose cluster contains the vehicle —
answers with a JREP carrying its identity.  Leaving vehicles notify the
CH, which moves them from its member (routing) table to its history
table.

Public API
----------
- :class:`~repro.clusters.rsu.RsuNode` -- a cluster head.
- :class:`~repro.clusters.membership.MemberRecord` -- one member row.
- :func:`~repro.clusters.builder.build_rsu_chain` -- deploy CHs over a
  highway with a wired backbone.
"""

from repro.clusters.builder import build_rsu_chain
from repro.clusters.coverage import GridCoverage, HighwayCoverage
from repro.clusters.membership import MemberRecord, MembershipTable
from repro.clusters.packets import JoinReply, JoinRequest, LeaveNotice
from repro.clusters.rsu import RsuNode

__all__ = [
    "GridCoverage",
    "HighwayCoverage",
    "JoinReply",
    "JoinRequest",
    "LeaveNotice",
    "MemberRecord",
    "MembershipTable",
    "RsuNode",
    "build_rsu_chain",
]
