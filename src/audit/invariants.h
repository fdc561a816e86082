// The invariant auditor: named cross-layer invariants of the Duet design.
//
// Each invariant is a property the PAPER states or assumes but the code
// never enforced in one place — table capacities (§3.1), the §4 cost
// accounting, "exactly one /32 announcer per HMux VIP with the SMux
// aggregate as LPM backstop" (§3.3.1), the §4.2 through-SMux migration
// order, the §5.2 single-encap rule. The auditor walks a SystemSnapshot
// (audit/snapshot.h) and reports every violation with the invariant's
// stable name, so a failing CI run names the broken design rule, not a
// stack trace.
//
// Severity: kError marks states the design rules out entirely (they become
// fatal under DUET_AUDIT_LEVEL=fatal); kWarning marks survivable drift.
//
// The journal auditor replays BGP /32 announce/withdraw events and checks
// the *temporal* invariant the snapshot cannot see: at no instant does a
// VIP have two announcers, i.e. every HMux-to-HMux move really transited
// the SMuxes (withdraw strictly before announce, §4.2). The replay is a fold
// into a JournalCursor, so a long-lived controller audits only what its
// journal gained since the last audit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "audit/check.h"
#include "audit/snapshot.h"
#include "telemetry/journal.h"

namespace duet::audit {

struct Violation {
  std::string invariant;  // stable slug, see InvariantAuditor::invariants()
  Severity severity = Severity::kError;
  std::string message;
};

struct AuditReport {
  std::vector<Violation> violations;
  std::size_t checks_run = 0;  // invariants evaluated (not violation count)

  bool clean() const noexcept { return violations.empty(); }
  std::size_t count(std::string_view invariant) const;
  // Feeds every violation through audit::report_violation, applying the
  // process audit-level policy (logging, counters, fatal-on-error).
  void raise() const;
  // Merges another report (e.g. snapshot + journal audits of one system).
  void merge(AuditReport other);
  std::string summary() const;
};

struct AuditOptions {
  // Between the §4.2 withdraw and announce phases the controller's
  // remembered assignment intentionally disagrees with VipRecord homes;
  // clear this to skip the placement-consistency invariant mid-migration.
  bool expect_converged_placement = true;
};

// The journal audit's replay state: every VIP's /32 announcer set, folded
// over the journal's first `folded` events, none of them later than
// `watermark_us`. A fold continues from here when every appended event is
// at or after the watermark (the full replay's stable time order is then the
// folded prefix's order followed by the suffix's); otherwise, or when the
// journal was cleared or shrank, it refolds from an empty cursor.
struct JournalCursor {
  std::unordered_map<Ipv4Address, std::unordered_set<std::uint32_t>> announcers;
  std::size_t folded = 0;
  std::uint64_t clears = 0;  // the journal's clears() at the last fold
  double watermark_us = -std::numeric_limits<double>::infinity();
  std::uint64_t events_folded = 0;  // lifetime total, refolds included
};

// Name + provenance of one audited invariant, for docs and `duetctl audit`.
struct InvariantInfo {
  const char* name;
  const char* paper_ref;
  const char* description;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(AuditOptions options = {}) : options_(options) {}

  // Checks every static invariant against the snapshot.
  AuditReport audit(const SystemSnapshot& snapshot) const;

  // Replays the journal's BGP /32 announce/withdraw stream and checks the
  // §4.2 migration phase order (invariants "migration-through-smux" and
  // "journal-withdraw-matches"): a fold from an empty cursor.
  AuditReport audit_journal(const telemetry::EventJournal& journal) const;
  // Folds the events appended since `cursor`'s last fold (or refolds, see
  // JournalCursor) and reports the violations among the events it folded,
  // so a violation is reported by the first audit that folds it.
  AuditReport audit_journal(const telemetry::EventJournal& journal, JournalCursor& cursor) const;

  // The full catalogue (including the data-path "single-encap" audit that
  // lives in dataplane/pipeline.cc rather than here).
  static const std::vector<InvariantInfo>& invariants();

 private:
  AuditOptions options_;
};

}  // namespace duet::audit
