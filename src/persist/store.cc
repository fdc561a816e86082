#include "persist/store.h"

#include <chrono>
#include <cstdio>

#include "audit/invariants.h"
#include "audit/snapshot.h"
#include "util/logging.h"

namespace duet::persist {

namespace {

bool is_missing_file(const std::string& error) {
  return error.rfind("cannot open", 0) == 0;
}

}  // namespace

std::unique_ptr<PersistentController> PersistentController::open(
    const FatTree& fabric, DuetConfig config, FlowHasher hasher, std::uint64_t seed,
    StoreOptions options, std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  auto fail = [&](std::string why) -> std::unique_ptr<PersistentController> {
    if (error != nullptr) *error = std::move(why);
    return nullptr;
  };

  // Private ctor keeps open() the only entry, so make_unique can't reach it.
  auto pc = std::unique_ptr<PersistentController>(new PersistentController());  // lint: allow-new
  pc->options_ = std::move(options);
  pc->controller_ = std::make_unique<DuetController>(fabric, config, hasher, seed);

  // 1. Snapshot (if any).
  auto snap = read_image(pc->snapshot_path());
  if (!snap.error.empty()) return fail(snap.error);
  if (snap.image.has_value()) {
    ControllerAccess::restore(*pc->controller_, *snap.image);
    pc->snapshot_seq_ = snap.image->seq;
    pc->last_seq_ = snap.image->seq;
    pc->recovery_.recovered = true;
    pc->recovery_.snapshot_seq = snap.image->seq;
  }

  // 2. Op replay. Ops the snapshot already contains (seq <= snapshot.seq)
  // are skipped — the crash window between "snapshot written" and "op log
  // rotated" leaves exactly such a prefix behind.
  auto replay = replay_ops(pc->oplog_path());
  if (!replay.ok() && !is_missing_file(replay.error)) return fail(replay.error);
  pc->recovery_.truncated_tail = replay.truncated_tail;
  for (const Op& op : replay.ops) {
    if (op.seq <= pc->snapshot_seq_) continue;
    if (!apply_op(*pc->controller_, op)) {
      return fail("op log contains an unknown op kind (version skew) at seq " +
                  std::to_string(op.seq));
    }
    pc->last_seq_ = op.seq;
    ++pc->recovery_.replayed;
    pc->recovery_.recovered = true;
  }

  // 3. Boot audit: all 16 invariants over the recovered structures plus the
  // journal's §4.2 temporal replay. A state that fails is not served.
  {
    audit::InvariantAuditor auditor(audit::AuditOptions{/*expect_converged_placement=*/true});
    audit::AuditReport report =
        auditor.audit(audit::SystemSnapshot::capture(*pc->controller_));
    report.merge(auditor.audit_journal(pc->controller_->journal()));
    pc->recovery_.audit_summary = report.clean() ? "clean" : report.summary();
    if (!report.clean()) {
      return fail("boot audit failed: " + report.summary());
    }
  }

  // 4. Reopen the log for appending (repairing any torn tail in place).
  pc->oplog_ = OpLog::open(pc->oplog_path(), pc->options_.fsync, pc->last_seq_ + 1);
  if (!pc->oplog_.has_value()) {
    return fail("cannot open op log for append: " + pc->oplog_path());
  }

  pc->recovery_.recover_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  // 5. Telemetry: the recovery event + persist gauges.
  auto& c = *pc->controller_;
  c.journal().record(telemetry::Event{
      c.clock_us(), telemetry::EventKind::kPersistRecover, {}, {}, telemetry::kNoSwitch,
      pc->recovery_.snapshot_seq, pc->recovery_.replayed,
      pc->recovery_.truncated_tail ? 1u : 0u,
      pc->recovery_.recovered ? "recovered" : "fresh"});
  auto& reg = c.metrics();
  reg.gauge("duet.persist.recovered").set(pc->recovery_.recovered ? 1.0 : 0.0);
  reg.gauge("duet.persist.snapshot_seq").set(static_cast<double>(pc->snapshot_seq_));
  reg.gauge("duet.persist.replayed_ops").set(static_cast<double>(pc->recovery_.replayed));
  reg.gauge("duet.persist.recover_ms").set(pc->recovery_.recover_ms);
  if (pc->recovery_.truncated_tail) reg.counter("duet.persist.torn_tails").inc();
  return pc;
}

bool PersistentController::apply(Op op) {
  // WAL order: durable first, applied second. A false return means the op
  // never happened — the controller was not touched.
  const auto seq = oplog_->append(op);
  if (!seq.has_value()) return false;
  op.seq = *seq;
  const bool dispatched = apply_op(*controller_, op);
  DUET_CHECK(dispatched) << "locally built op with unknown kind";
  last_seq_ = *seq;
  controller_->metrics().counter("duet.persist.ops_applied").inc();
  if (options_.snapshot_every_ops > 0 && ops_since_snapshot() >= options_.snapshot_every_ops) {
    snapshot_now();
  }
  return true;
}

bool PersistentController::snapshot_now() {
  StateImage image = ControllerAccess::capture(*controller_);
  image.seq = last_seq_;
  if (!write_image(snapshot_path(), image)) {
    DUET_LOG_ERROR << "snapshot write failed; keeping previous snapshot + op log";
    return false;
  }
  snapshot_seq_ = last_seq_;
  // Restart the op log: everything up to snapshot_seq_ is now in the image.
  // A crash anywhere in this window is safe — replay skips seq <= snapshot
  // seq, and a missing log is an empty log.
  oplog_.reset();  // close the fd before unlinking
  std::remove(oplog_path().c_str());
  oplog_ = OpLog::open(oplog_path(), options_.fsync, last_seq_ + 1);
  DUET_CHECK(oplog_.has_value()) << "cannot restart op log " << oplog_path();
  auto& reg = controller_->metrics();
  reg.counter("duet.persist.snapshots").inc();
  reg.gauge("duet.persist.snapshot_seq").set(static_cast<double>(snapshot_seq_));
  return true;
}

}  // namespace duet::persist
