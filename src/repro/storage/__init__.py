"""Shared posting-list storage layer (see ``docs/STORAGE.md``).

One columnar substrate under the three index implementations:

* :class:`LabelInterner` — bidirectional label ↔ small-int dictionary,
  shared per database (persistence format v2, GraphGrep path keys),
* :class:`PostingList` — immutable sorted id column, the authoritative
  form of every support set, with adaptive gallop/hash two-way
  intersection and a smallest-first k-way
  :meth:`~PostingList.intersect_many`, the filter of the gIndex and
  GraphGrep baselines,
* :class:`IdStore` — a mutable id set over posting-list snapshots, the
  heap backing of every feature's support set and of the γ-shrunk
  trees' exception lists, with ``add_graph``/``remove_graph`` for
  Section 7.1 maintenance,
* :class:`SlotTable` — dense slots for one TreePi index's live graph
  ids, the bit positions of the Python-int support bitmaps that each
  feature and shrunk tree owns and every TreePi filter stage
  (Algorithm 1, the shrunk-tree answer) ANDs.

The design follows the succinct-representation line of MSQ-Index
(arXiv:1612.09155) and CNI (arXiv:1703.05547): sorted integer columns
instead of hash sets, and only what the filter reads.  Center locations
(Section 4.2.1) are not stored; the paper pipeline finds them by search
(:class:`~repro.core.center_prune.CenterConstraintProblem`).
"""

from repro.storage.interner import LabelInterner
from repro.storage.posting import IdStore, PostingList
from repro.storage.slots import SlotTable, popcount

__all__ = ["IdStore", "LabelInterner", "PostingList", "SlotTable", "popcount"]
