"""Privacy definitions: sensitivities, guarantees, conversion and audits.

This package encodes the paper's Section II formally:

* :mod:`repro.privacy.sensitivity` — the adjacency relations (individual,
  node and group level; paper Definitions 1–4) and the sensitivity of
  association-count workloads under each, the quantity mechanisms are
  calibrated to (the calibration rule itself, L1 or L2 per mechanism, is
  :func:`repro.core.pipeline.calibrated_sensitivity`);
* :mod:`repro.privacy.guarantees` — ``(epsilon, delta)`` guarantee records
  attached to releases;
* :mod:`repro.privacy.conversion` — the classic lemma converting an
  individual-DP guarantee into a group-DP guarantee for groups of bounded
  size (and the reverse direction used by the naive baseline);
* :mod:`repro.privacy.audit` — empirical audits comparing a mechanism's
  output distributions on adjacent inputs against its claimed epsilon.
"""

from repro.privacy.sensitivity import (
    group_count_sensitivity,
    group_workload_l1_sensitivity,
    node_count_sensitivity,
)
from repro.privacy.guarantees import (
    GroupPrivacyGuarantee,
    IndividualPrivacyGuarantee,
    PrivacyGuarantee,
    PrivacyUnit,
)
from repro.privacy.conversion import (
    group_guarantee_from_individual,
    individual_budget_for_group_target,
)
from repro.privacy.audit import AuditResult, audit_count_release, audit_scalar_mechanism

__all__ = [
    "group_count_sensitivity",
    "group_workload_l1_sensitivity",
    "node_count_sensitivity",
    "GroupPrivacyGuarantee",
    "IndividualPrivacyGuarantee",
    "PrivacyGuarantee",
    "PrivacyUnit",
    "group_guarantee_from_individual",
    "individual_budget_for_group_target",
    "AuditResult",
    "audit_count_release",
    "audit_scalar_mechanism",
]
