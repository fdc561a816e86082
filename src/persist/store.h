// The durable controller: a DuetController whose every mutation is
// write-ahead journaled, with periodic snapshots and crash recovery.
//
// Directory layout (StoreOptions::dir):
//   snapshot.duet — one CRC-framed StateImage, atomically replaced
//   oplog.duet    — CRC-framed Ops appended since that snapshot
//
// WAL contract: apply() appends the op (fsync'd under kEveryRecord) BEFORE
// applying it, so an acknowledged mutation survives kill -9. Recovery =
// restore the snapshot, then replay every op with seq > snapshot.seq; ops
// carry their journal clock, so the replayed controller is byte-identical
// (encode_state) to one that never crashed. A torn final op — the normal
// aftermath of a crash mid-append — is truncated, never skipped.
//
// Snapshot rotation is crash-window free: the image lands via atomic
// replace, and only then is the op log restarted. A crash between the two
// steps merely replays ops the snapshot already contains — replay skips
// seq <= snapshot.seq.
//
// Every boot runs the InvariantAuditor (all 16 invariants, snapshot +
// journal) over the recovered state; open() refuses to serve a state that
// fails its audit.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "duet/controller.h"
#include "persist/op_log.h"
#include "persist/state_image.h"

namespace duet::persist {

struct StoreOptions {
  std::string dir;  // must exist; snapshot.duet / oplog.duet live here
  FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
  // Auto-snapshot after this many ops since the last one (0 = manual only).
  std::uint64_t snapshot_every_ops = 0;
};

struct RecoveryInfo {
  bool recovered = false;  // any state came from disk (snapshot or ops)
  std::uint64_t snapshot_seq = 0;
  std::uint64_t replayed = 0;       // ops applied on top of the snapshot
  bool truncated_tail = false;      // a torn final op was cut
  double recover_ms = 0.0;          // restore + replay + boot audit
  std::string audit_summary;        // boot-audit result ("clean" or details)
};

class PersistentController {
 public:
  // Opens (and recovers) the store. The fabric/config/hasher/seed MUST match
  // what the directory's state was built with — the snapshot re-drives the
  // same deterministic controller. Returns nullptr with *error set on I/O
  // failure, undecodable state, or a failed boot audit.
  static std::unique_ptr<PersistentController> open(const FatTree& fabric, DuetConfig config,
                                                    FlowHasher hasher, std::uint64_t seed,
                                                    StoreOptions options, std::string* error);

  DuetController& controller() noexcept { return *controller_; }
  const DuetController& controller() const noexcept { return *controller_; }
  const RecoveryInfo& recovery() const noexcept { return recovery_; }

  // Durably journals `op` (stamping its seq), then applies it. Returns false
  // — with the controller UNTOUCHED — if the append cannot be made durable.
  bool apply(Op op);

  // Captures the current state, atomically replaces the snapshot, restarts
  // the op log. False on I/O failure (the old snapshot+log remain valid).
  bool snapshot_now();

  std::uint64_t last_seq() const noexcept { return last_seq_; }
  std::uint64_t snapshot_seq() const noexcept { return snapshot_seq_; }
  std::uint64_t ops_since_snapshot() const noexcept { return last_seq_ - snapshot_seq_; }

  std::string snapshot_path() const { return options_.dir + "/snapshot.duet"; }
  std::string oplog_path() const { return options_.dir + "/oplog.duet"; }

 private:
  PersistentController() = default;

  StoreOptions options_;
  std::unique_ptr<DuetController> controller_;
  std::optional<OpLog> oplog_;
  std::uint64_t last_seq_ = 0;
  std::uint64_t snapshot_seq_ = 0;
  RecoveryInfo recovery_;
};

}  // namespace duet::persist
