// The controller operation journal: every DuetController mutation as one
// typed, replayable record.
//
// The DuetController is deterministic: given the same construction inputs
// (fabric, config, hasher, seed) and the same operation sequence — including
// each operation's journal clock — it reaches the same logical state. That
// determinism is what makes write-ahead logging sufficient for crash
// recovery: an Op is appended (and, under FsyncPolicy::kEveryRecord,
// fsync'd) BEFORE it is applied, so after kill -9 the log replays to exactly
// the acknowledged prefix of history. Epoch runs journal their full demand
// vectors (bit-exact f64), so even the assignment algorithm's inputs replay
// identically.
//
// Record framing is persist/framing.h: per-record CRC32, torn final record
// truncated on read. Every record carries its sequence number, so a log that
// grew after a snapshot replays only the suffix (apply ops with seq >
// snapshot seq) — no log rewriting on the snapshot path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "duet/config.h"
#include "net/ip.h"
#include "persist/framing.h"
#include "topo/topology.h"
#include "workload/demand.h"

namespace duet {
class DuetController;
}  // namespace duet

namespace duet::persist {

inline constexpr std::string_view kOpLogMagic = "DUETOPL1";

enum class OpKind : std::uint8_t {
  kDeploySmuxes = 0,     // tors = addrs-as-switch-ids, aggregate
  kAddVip = 1,           // vip, addrs = dips
  kRemoveVip = 2,        // vip
  kAddDip = 3,           // vip, dip
  kRemoveDip = 4,        // vip, dip
  kReportHealth = 5,     // vip, dip, flag = healthy
  kInstallPortRule = 6,  // vip, port, addrs = dips
  kRemovePortRule = 7,   // vip, port
  kSetWeights = 8,       // vip, weights
  kSetEngineOverride = 9,   // vip, engine (255 = clear back to default)
  kRunEpoch = 10,        // demands, flag = sticky
  kSwitchFailure = 11,   // sw
  kSmuxFailure = 12,     // sw = smux id
  kMigrateVip = 13,      // vip, sw = target (kInvalidSwitch = to SMux pool)
  // 14 is retired (a serving-plane cache directive, never controller state)
  // and must not be reused: a log that holds it is refused as version skew.
};

const char* to_string(OpKind kind) noexcept;

inline constexpr std::uint8_t kEngineClear = 255;

// One journaled mutation. A single struct for all kinds (the unused fields
// stay at their defaults and cost nothing on the wire worth optimizing).
struct Op {
  std::uint64_t seq = 0;  // 1-based, assigned by OpLog::append
  double t_us = 0.0;      // controller journal clock at apply time
  OpKind kind = OpKind::kAddVip;

  Ipv4Address vip{};
  Ipv4Address dip{};
  std::uint32_t sw = kInvalidSwitch;
  std::uint16_t port = 0;
  bool flag = false;           // healthy / sticky
  std::uint8_t engine = kEngineClear;
  Ipv4Prefix aggregate{};
  std::vector<std::uint32_t> addrs;    // DIPs or ToR switch ids, kind-dependent
  std::vector<std::uint32_t> weights;
  std::vector<VipDemand> demands;

  friend bool operator==(const Op&, const Op&) = default;
};

std::vector<std::uint8_t> encode_op(const Op& op);
std::optional<Op> decode_op(std::span<const std::uint8_t> bytes);

// Applies one op to the controller: sets the journal clock to op.t_us, then
// dispatches to the matching mutator. Unknown-VIP removals and re-deliveries
// of already-applied state follow the controller's own semantics (DUET_CHECK
// where the controller checks). Returns false only for a kind the build does
// not understand (version skew).
bool apply_op(DuetController& controller, const Op& op);

// Append side of the log. Not thread-safe; duetd serializes ops anyway.
class OpLog {
 public:
  // Opens for appending, repairing a torn tail in place. `next_seq` is the
  // sequence the next append will get (callers pass last known seq + 1).
  static std::optional<OpLog> open(const std::string& path, FsyncPolicy policy,
                                   std::uint64_t next_seq);

  // Stamps op.seq, appends durably (per the policy), returns the seq — or
  // nullopt on write failure, in which case the op MUST NOT be applied (the
  // WAL contract). A failed append still consumes its seq: the bytes may
  // have reached the file (fsync failure), and reusing the seq would shadow
  // the next acknowledged op at replay.
  std::optional<std::uint64_t> append(Op op);

  std::uint64_t next_seq() const noexcept { return next_seq_; }
  std::uint64_t bytes_written() const noexcept { return writer_.bytes_written(); }
  std::uint64_t records_appended() const noexcept { return appended_; }
  bool sync() { return writer_.sync(); }

 private:
  FrameWriter writer_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t appended_ = 0;
};

struct ReplayResult {
  std::vector<Op> ops;          // seq-ascending, duplicates/regressions dropped
  bool truncated_tail = false;  // torn or unparseable tail dropped
  std::string error;            // hard failure; ops empty

  bool ok() const noexcept { return error.empty(); }
};

// Reads every intact op. Tolerates (reports) a torn tail; errors only on a
// missing/corrupt-header file.
ReplayResult replay_ops(const std::string& path);

}  // namespace duet::persist
