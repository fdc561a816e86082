// Persistence subsystem tests: CRC framing, op/journal/image round trips,
// and the two tentpole properties —
//   * crash recovery: a random op sequence, a kill-9-style truncation at a
//     random journal byte, recovery, and bit-identical encode_state equality
//     against a twin controller that never crashed;
//   * snapshot compaction: recovery replays at most snapshot_every_ops ops.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "audit/invariants.h"
#include "audit/snapshot.h"
#include "duet/controller.h"
#include "persist/ctl_protocol.h"
#include "persist/daemon.h"
#include "persist/framing.h"
#include "persist/op_log.h"
#include "persist/state_image.h"
#include "persist/store.h"
#include "runtime/live_probe.h"
#include "topo/fattree.h"
#include "util/random.h"

namespace duet::persist {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/duet_persist_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    path_ = dir == nullptr ? "/tmp" : dir;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void truncate_file(const std::string& path, std::uint64_t to) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(to)), 0);
}

// Caps the process file-size limit so the next write fails mid-record with
// EFBIG (SIGXFSZ ignored for the duration) — a portable stand-in for ENOSPC
// that produces exactly the partial-write shape a full disk leaves behind.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(std::uint64_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &old_);
    prev_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lim{static_cast<rlim_t>(bytes), old_.rlim_max};
    ::setrlimit(RLIMIT_FSIZE, &lim);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, prev_handler_);
  }

 private:
  rlimit old_{};
  void (*prev_handler_)(int) = SIG_DFL;
};

// --- framing ------------------------------------------------------------------

TEST(PersistFraming, Crc32MatchesStandardCheckValue) {
  const std::string check = "123456789";
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size()};
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
}

TEST(PersistFraming, FsyncPolicyParses) {
  FsyncPolicy p;
  EXPECT_TRUE(parse_fsync_policy("none", &p));
  EXPECT_EQ(p, FsyncPolicy::kNone);
  EXPECT_TRUE(parse_fsync_policy("every", &p));
  EXPECT_EQ(p, FsyncPolicy::kEveryRecord);
  EXPECT_FALSE(parse_fsync_policy("sometimes", &p));
}

TEST(PersistFraming, RoundTripsFrames) {
  TempDir dir;
  const std::string path = dir.path() + "/frames.duet";
  {
    auto writer = FrameWriter::open(path, "TESTMAG1", FsyncPolicy::kNone);
    ASSERT_TRUE(writer.has_value());
    const std::vector<std::uint8_t> a{1, 2, 3}, b{}, c(1000, 0x5a);
    EXPECT_TRUE(writer->append(7, a));
    EXPECT_TRUE(writer->append(8, b));
    EXPECT_TRUE(writer->append(9, c));
  }
  const auto result = read_frames(path, "TESTMAG1");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(result.truncated_tail);
  ASSERT_EQ(result.frames.size(), 3u);
  EXPECT_EQ(result.frames[0].type, 7);
  EXPECT_EQ(result.frames[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(result.frames[1].payload.empty());
  EXPECT_EQ(result.frames[2].payload.size(), 1000u);
}

TEST(PersistFraming, WrongMagicIsAnError) {
  TempDir dir;
  const std::string path = dir.path() + "/frames.duet";
  { ASSERT_TRUE(FrameWriter::open(path, "TESTMAG1", FsyncPolicy::kNone).has_value()); }
  EXPECT_FALSE(read_frames(path, "OTHERMAG").ok());
}

TEST(PersistFraming, TornTailIsTruncatedNotFatal) {
  TempDir dir;
  const std::string path = dir.path() + "/frames.duet";
  {
    auto writer = FrameWriter::open(path, "TESTMAG1", FsyncPolicy::kNone);
    ASSERT_TRUE(writer.has_value());
    const std::vector<std::uint8_t> payload(64, 0xab);
    for (std::uint8_t t = 0; t < 4; ++t) EXPECT_TRUE(writer->append(t, payload));
  }
  const auto full = file_size(path);
  // Cut mid-way through the last record: reads must surface the first three
  // intact frames, flag the torn tail, and report the repair offset.
  truncate_file(path, full - 10);
  const auto result = read_frames(path, "TESTMAG1");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.truncated_tail);
  ASSERT_EQ(result.frames.size(), 3u);
  EXPECT_LT(result.valid_bytes, full - 10);

  // A writer reopened at the repair offset appends cleanly over the damage.
  {
    auto writer =
        FrameWriter::open(path, "TESTMAG1", FsyncPolicy::kNone, result.valid_bytes);
    ASSERT_TRUE(writer.has_value());
    EXPECT_TRUE(writer->append(9, std::vector<std::uint8_t>{1}));
  }
  const auto repaired = read_frames(path, "TESTMAG1");
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired.truncated_tail);
  ASSERT_EQ(repaired.frames.size(), 4u);
  EXPECT_EQ(repaired.frames[3].type, 9);
}

TEST(PersistFraming, FileShorterThanMagicIsEmptyNotCorrupt) {
  TempDir dir;
  const std::string path = dir.path() + "/frames.duet";
  // 0 bytes: kill -9 landed between open(O_CREAT) and the magic stamp.
  { std::ofstream f{path, std::ios::binary}; }
  auto result = read_frames(path, "TESTMAG1");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.frames.empty());
  EXPECT_FALSE(result.truncated_tail);
  EXPECT_EQ(result.valid_bytes, 0u);

  // A torn magic stamp: still an empty log, flagged so the opener repairs.
  {
    std::ofstream f{path, std::ios::binary};
    f.write("TES", 3);
  }
  result = read_frames(path, "TESTMAG1");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.frames.empty());
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_EQ(result.valid_bytes, 0u);

  // The normal repair-on-open path truncates to 0, re-stamps the magic, and
  // the log is fully usable again — no hand removal of the file.
  {
    auto writer = FrameWriter::open(path, "TESTMAG1", FsyncPolicy::kNone, result.valid_bytes);
    ASSERT_TRUE(writer.has_value());
    EXPECT_TRUE(writer->append(5, std::vector<std::uint8_t>{42}));
  }
  const auto repaired = read_frames(path, "TESTMAG1");
  ASSERT_TRUE(repaired.ok()) << repaired.error;
  EXPECT_FALSE(repaired.truncated_tail);
  ASSERT_EQ(repaired.frames.size(), 1u);
  EXPECT_EQ(repaired.frames[0].type, 5);
}

TEST(PersistFraming, FailedAppendRollsBackTheTornTail) {
  TempDir dir;
  const std::string path = dir.path() + "/frames.duet";
  auto writer = FrameWriter::open(path, "TESTMAG1", FsyncPolicy::kNone);
  ASSERT_TRUE(writer.has_value());
  ASSERT_TRUE(writer->append(1, std::vector<std::uint8_t>(64, 0x11)));
  const auto good = writer->bytes_written();

  {
    // Let the next record land only its first 8 bytes before the write
    // fails — the torn-tail shape a real ENOSPC leaves behind.
    FileSizeLimit limit{good + 8};
    EXPECT_FALSE(writer->append(2, std::vector<std::uint8_t>(64, 0x22)));
  }

  // The torn bytes were rolled back: the writer stays usable and the next
  // append lands directly after the last good record, not behind garbage
  // that would make readers stop early and recovery drop it.
  EXPECT_FALSE(writer->poisoned());
  EXPECT_EQ(writer->bytes_written(), good);
  EXPECT_EQ(file_size(path), good);
  EXPECT_TRUE(writer->append(3, std::vector<std::uint8_t>(16, 0x33)));
  writer->close();

  const auto result = read_frames(path, "TESTMAG1");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(result.truncated_tail);
  ASSERT_EQ(result.frames.size(), 2u);
  EXPECT_EQ(result.frames[0].type, 1);
  EXPECT_EQ(result.frames[1].type, 3);
}

TEST(PersistFraming, CorruptedByteInvalidatesTheTail) {
  TempDir dir;
  const std::string path = dir.path() + "/frames.duet";
  {
    auto writer = FrameWriter::open(path, "TESTMAG1", FsyncPolicy::kNone);
    ASSERT_TRUE(writer.has_value());
    EXPECT_TRUE(writer->append(1, std::vector<std::uint8_t>(32, 0x11)));
    EXPECT_TRUE(writer->append(2, std::vector<std::uint8_t>(32, 0x22)));
  }
  // Flip one payload byte of the LAST record; its CRC must reject it.
  {
    std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(-5, std::ios::end);
    f.put(static_cast<char>(0xff));
  }
  const auto result = read_frames(path, "TESTMAG1");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.truncated_tail);
  ASSERT_EQ(result.frames.size(), 1u);
  EXPECT_EQ(result.frames[0].type, 1);
}

// --- op codec -----------------------------------------------------------------

TEST(PersistOpLog, OpsRoundTripThroughTheCodec) {
  std::vector<Op> ops;
  {
    Op op;
    op.seq = 12;
    op.t_us = 3.25e6;
    op.kind = OpKind::kDeploySmuxes;
    op.aggregate = Ipv4Prefix{Ipv4Address{100, 0, 0, 0}, 8};
    op.addrs = {2, 5, 9};
    ops.push_back(op);
  }
  {
    Op op;
    op.seq = 13;
    op.kind = OpKind::kAddVip;
    op.vip = Ipv4Address{100, 0, 1, 1};
    op.addrs = {Ipv4Address{10, 0, 0, 1}.value(), Ipv4Address{10, 0, 0, 2}.value()};
    ops.push_back(op);
  }
  {
    Op op;
    op.seq = 14;
    op.kind = OpKind::kRunEpoch;
    op.flag = true;
    VipDemand d;
    d.id = 0;
    d.vip = Ipv4Address{100, 0, 1, 1};
    d.total_gbps = 1.0 / 3.0;  // must survive bit-exactly
    d.dip_count = 2;
    d.ingress_gbps = {{1, 0.1}, {4, 0.7}};
    d.dip_tor_gbps = {{2, 1.0 / 7.0}};
    op.demands.push_back(d);
    ops.push_back(op);
  }
  {
    Op op;
    op.seq = 15;
    op.kind = OpKind::kMigrateVip;
    op.vip = Ipv4Address{100, 0, 1, 1};
    op.sw = kInvalidSwitch;  // back to the SMux pool
    ops.push_back(op);
  }
  {
    Op op;
    op.seq = 16;
    op.kind = OpKind::kSetEngineOverride;
    op.vip = Ipv4Address{100, 0, 1, 1};
    op.engine = static_cast<std::uint8_t>(SmuxEngine::kStateless);
    ops.push_back(op);
  }
  for (const Op& op : ops) {
    const auto decoded = decode_op(encode_op(op));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, op);
  }
}

TEST(PersistOpLog, AppendAndReplay) {
  TempDir dir;
  const std::string path = dir.path() + "/oplog.duet";
  {
    auto log = OpLog::open(path, FsyncPolicy::kEveryRecord, /*next_seq=*/1);
    ASSERT_TRUE(log.has_value());
    for (int i = 0; i < 5; ++i) {
      Op op;
      op.kind = OpKind::kAddVip;
      op.vip = Ipv4Address{100, 0, 0, static_cast<std::uint8_t>(i + 1)};
      op.addrs = {Ipv4Address{10, 0, 0, 1}.value()};
      const auto seq = log->append(op);
      ASSERT_TRUE(seq.has_value());
      EXPECT_EQ(*seq, static_cast<std::uint64_t>(i + 1));
    }
  }
  const auto replay = replay_ops(path);
  ASSERT_TRUE(replay.ok()) << replay.error;
  EXPECT_FALSE(replay.truncated_tail);
  ASSERT_EQ(replay.ops.size(), 5u);
  EXPECT_EQ(replay.ops.back().seq, 5u);

  // Reopening continues the sequence after the existing records.
  auto log = OpLog::open(path, FsyncPolicy::kEveryRecord, 6);
  ASSERT_TRUE(log.has_value());
  Op op;
  op.kind = OpKind::kRemoveVip;
  op.vip = Ipv4Address{100, 0, 0, 1};
  EXPECT_EQ(log->append(op).value_or(0), 6u);
}

TEST(PersistOpLog, FailedAppendBurnsItsSeqSoReplayKeepsLaterOps) {
  TempDir dir;
  const std::string path = dir.path() + "/oplog.duet";
  auto log = OpLog::open(path, FsyncPolicy::kNone, /*next_seq=*/1);
  ASSERT_TRUE(log.has_value());
  Op op;
  op.kind = OpKind::kAddVip;
  op.vip = Ipv4Address{100, 0, 0, 1};
  op.addrs = {Ipv4Address{10, 0, 0, 1}.value()};
  ASSERT_EQ(log->append(op).value_or(0), 1u);

  {
    FileSizeLimit limit{log->bytes_written() + 4};
    EXPECT_FALSE(log->append(op).has_value());
  }

  // The failed append consumed seq 2: were it re-stamped on the next op,
  // a half-flushed first record could shadow the acknowledged one at replay
  // (duplicates are dropped by seq). Gaps are fine — replay only needs
  // monotonic seqs.
  EXPECT_EQ(log->next_seq(), 3u);
  op.vip = Ipv4Address{100, 0, 0, 2};
  EXPECT_EQ(log->append(op).value_or(0), 3u);

  const auto replay = replay_ops(path);
  ASSERT_TRUE(replay.ok()) << replay.error;
  ASSERT_EQ(replay.ops.size(), 2u);
  EXPECT_EQ(replay.ops[0].seq, 1u);
  EXPECT_EQ(replay.ops[1].seq, 3u);
}

// --- random op sequences (shared by the property tests) -----------------------

struct OpScriptConfig {
  std::size_t steps = 40;
  std::uint64_t seed = 1;
};

// Generates a valid random controller op script against the given fabric:
// every referenced VIP/DIP/port exists at that point of the sequence, SMuxes
// are never all killed, and weights are cleared before pool growth. The
// script is pure data — both the persistent store and the never-crashed twin
// replay it through apply_op.
std::vector<Op> make_op_script(const FatTree& fabric, const OpScriptConfig& cfg) {
  Rng rng{cfg.seed};
  std::vector<Op> script;
  double t_us = 0.0;
  auto stamp = [&](Op op) {
    t_us += 1e5;
    op.t_us = t_us;
    script.push_back(std::move(op));
  };

  {
    Op deploy;
    deploy.kind = OpKind::kDeploySmuxes;
    deploy.aggregate = Ipv4Prefix{Ipv4Address{100, 0, 0, 0}, 8};
    deploy.addrs = {fabric.tors.front(), fabric.tors[fabric.tors.size() / 2],
                    fabric.tors.back()};
    stamp(std::move(deploy));
  }

  struct VipState {
    VipId id = 0;
    std::vector<std::uint32_t> dips;
    bool weighted = false;
    std::vector<std::uint16_t> ports;
  };
  std::map<std::uint32_t, VipState> vips;  // keyed by VIP address value
  VipId next_id = 0;
  std::size_t live_smuxes = 3;
  std::uint32_t next_dip = (10u << 24) + 1;
  int epoch = 0;

  auto random_vip = [&]() -> std::pair<std::uint32_t, VipState*> {
    auto it = vips.begin();
    std::advance(it, static_cast<long>(rng.uniform_int(0, vips.size() - 1)));
    return {it->first, &it->second};
  };
  auto erase_dip = [&](VipState& v, std::uint32_t dip) {
    v.dips.erase(std::remove(v.dips.begin(), v.dips.end(), dip), v.dips.end());
  };

  for (std::size_t step = 0; step < cfg.steps; ++step) {
    const auto roll = rng.uniform_int(0, 99);
    if (vips.empty() || (roll < 18 && vips.size() < 12)) {
      Op op;
      op.kind = OpKind::kAddVip;
      const std::uint32_t vip = (100u << 24) + (static_cast<std::uint32_t>(next_id) << 8) + 1;
      op.vip = Ipv4Address{vip};
      const auto ndips = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
      for (std::uint64_t d = 0; d < ndips; ++d) op.addrs.push_back(next_dip++);
      VipState v;
      v.id = next_id++;
      for (const auto a : op.addrs) v.dips.push_back(a);
      vips.emplace(vip, std::move(v));
      stamp(std::move(op));
    } else if (roll < 30) {
      auto [addr, v] = random_vip();
      if (v->weighted) {
        // Clear stale weights before growing the pool (the controller
        // requires weights to match the pool size when set).
        Op clear;
        clear.kind = OpKind::kSetWeights;
        clear.vip = Ipv4Address{addr};
        v->weighted = false;
        stamp(std::move(clear));
      }
      Op op;
      op.kind = OpKind::kAddDip;
      op.vip = Ipv4Address{addr};
      op.dip = Ipv4Address{next_dip};
      v->dips.push_back(next_dip++);
      stamp(std::move(op));
    } else if (roll < 42) {
      auto [addr, v] = random_vip();
      if (v->weighted) {
        // Pool shrinkage has the same weights-must-match constraint as
        // growth: clear them first.
        Op clear;
        clear.kind = OpKind::kSetWeights;
        clear.vip = Ipv4Address{addr};
        v->weighted = false;
        stamp(std::move(clear));
      }
      const auto dip = v->dips[rng.uniform_int(0, v->dips.size() - 1)];
      Op op;
      op.kind = rng.uniform01() < 0.5 ? OpKind::kRemoveDip : OpKind::kReportHealth;
      op.vip = Ipv4Address{addr};
      op.dip = Ipv4Address{dip};
      op.flag = false;  // kReportHealth: unhealthy = removed from rotation
      erase_dip(*v, dip);
      if (v->dips.empty()) vips.erase(addr);  // last DIP removes the VIP
      stamp(std::move(op));
    } else if (roll < 50) {
      auto [addr, v] = random_vip();
      Op op;
      op.kind = OpKind::kSetWeights;
      op.vip = Ipv4Address{addr};
      for (std::size_t i = 0; i < v->dips.size(); ++i) {
        op.weights.push_back(static_cast<std::uint32_t>(rng.uniform_int(1, 4)));
      }
      v->weighted = true;
      stamp(std::move(op));
    } else if (roll < 58) {
      auto [addr, v] = random_vip();
      Op op;
      op.vip = Ipv4Address{addr};
      if (!v->ports.empty() && rng.uniform01() < 0.4) {
        op.kind = OpKind::kRemovePortRule;
        const auto i = rng.uniform_int(0, v->ports.size() - 1);
        op.port = v->ports[i];
        v->ports.erase(v->ports.begin() + static_cast<long>(i));
      } else {
        op.kind = OpKind::kInstallPortRule;
        op.port = static_cast<std::uint16_t>(rng.uniform_int(1, 9) * 1000);
        op.addrs = {v->dips.front()};
        if (std::find(v->ports.begin(), v->ports.end(), op.port) == v->ports.end()) {
          v->ports.push_back(op.port);
        }
      }
      stamp(std::move(op));
    } else if (roll < 66) {
      auto [addr, v] = random_vip();
      Op op;
      op.kind = OpKind::kSetEngineOverride;
      op.vip = Ipv4Address{addr};
      const auto which = rng.uniform_int(0, 2);
      op.engine = which == 2 ? kEngineClear : static_cast<std::uint8_t>(which);
      stamp(std::move(op));
    } else if (roll < 76) {
      auto [addr, v] = random_vip();
      Op op;
      op.kind = OpKind::kMigrateVip;
      op.vip = Ipv4Address{addr};
      op.sw = rng.uniform01() < 0.3
                  ? kInvalidSwitch
                  : static_cast<std::uint32_t>(
                        rng.uniform_int(0, fabric.topo.switch_count() - 1));
      stamp(std::move(op));
    } else if (roll < 90) {
      Op op;
      op.kind = OpKind::kRunEpoch;
      op.flag = epoch++ > 0;  // first epoch from scratch, then sticky
      for (const auto& [addr, v] : vips) {
        VipDemand d;
        d.id = v.id;
        d.vip = Ipv4Address{addr};
        d.total_gbps = 0.5 + 4.0 * rng.uniform01();
        d.dip_count = v.dips.size();
        d.ingress_gbps = {
            {fabric.tors[rng.uniform_int(0, fabric.tors.size() - 1)], d.total_gbps}};
        d.dip_tor_gbps = {
            {fabric.tors[rng.uniform_int(0, fabric.tors.size() - 1)], d.total_gbps}};
        op.demands.push_back(std::move(d));
      }
      stamp(std::move(op));
    } else if (roll < 95 && live_smuxes > 1) {
      Op op;
      op.kind = OpKind::kSmuxFailure;
      op.sw = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
      --live_smuxes;  // conservative (double-kill of one id is idempotent)
      stamp(std::move(op));
    } else {
      Op op;
      op.kind = OpKind::kSwitchFailure;
      op.sw = fabric.cores[rng.uniform_int(0, fabric.cores.size() - 1)];
      stamp(std::move(op));
    }
  }
  return script;
}

// --- crash-recovery property --------------------------------------------------

// Drive a random op script through the durable store with auto-snapshots on,
// simulate kill -9 by truncating the op log at a random byte offset, recover,
// and demand (a) a clean boot audit and (b) encode_state bytes identical to a
// twin controller that applied exactly the acknowledged prefix and never
// crashed.
TEST(PersistRecovery, RandomCrashPointMatchesUncrashedTwin) {
  const auto fabric = build_fattree(FatTreeParams::scaled(2, 4, 2));
  const DuetConfig config;

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TempDir dir;
    OpScriptConfig cfg;
    cfg.seed = seed;
    cfg.steps = 36;
    const auto script = make_op_script(fabric, cfg);

    StoreOptions so;
    so.dir = dir.path();
    so.fsync = FsyncPolicy::kEveryRecord;
    so.snapshot_every_ops = 7;  // several rotations per script
    std::string error;
    std::vector<Op> applied;
    {
      auto store =
          PersistentController::open(fabric, config, FlowHasher{seed}, seed, so, &error);
      ASSERT_NE(store, nullptr) << error;
      for (const Op& op : script) {
        Op copy = op;
        ASSERT_TRUE(store->apply(copy));
      }
      applied = script;  // seqs are 1..N in apply order
    }

    // kill -9: the process is gone; the op log ends wherever the last write
    // landed. Simulate every possible crash point by truncating at a random
    // byte (always keeping the 8-byte magic).
    const std::string oplog = dir.path() + "/oplog.duet";
    const auto full = file_size(oplog);
    Rng crash_rng{seed * 1000003};
    const auto cut = kMagicBytes + crash_rng.uniform_int(0, full - kMagicBytes);
    truncate_file(oplog, cut);

    auto recovered =
        PersistentController::open(fabric, config, FlowHasher{seed}, seed, so, &error);
    ASSERT_NE(recovered, nullptr) << "seed " << seed << ": " << error;
    const auto& info = recovered->recovery();
    EXPECT_TRUE(info.recovered);
    EXPECT_EQ(info.audit_summary, "clean");
    const auto last = recovered->last_seq();
    ASSERT_LE(last, applied.size());
    ASSERT_GE(last, recovered->snapshot_seq());

    // The never-crashed twin: a fresh controller fed the acknowledged prefix.
    DuetController twin{fabric, config, FlowHasher{seed}, seed};
    for (std::uint64_t i = 0; i < last; ++i) ASSERT_TRUE(apply_op(twin, applied[i]));
    EXPECT_EQ(encode_state(recovered->controller()), encode_state(twin))
        << "seed " << seed << ": recovered state diverged at seq " << last << " (cut " << cut
        << "/" << full << " bytes, snapshot seq " << recovered->snapshot_seq() << ")";

    // And the recovered store keeps working: one more op lands cleanly.
    if (recovered->controller().vip_count() > 0) {
      const auto vip = recovered->controller().vip_addresses().front();
      Op op;
      op.kind = OpKind::kMigrateVip;
      op.vip = vip;
      op.sw = kInvalidSwitch;
      op.t_us = 1e12;
      EXPECT_TRUE(recovered->apply(op));
      EXPECT_EQ(recovered->last_seq(), last + 1);
    }
  }
}

TEST(PersistRecovery, CleanShutdownRecoversIdentically) {
  const auto fabric = build_fattree(FatTreeParams::scaled(2, 4, 2));
  const DuetConfig config;
  TempDir dir;
  OpScriptConfig cfg;
  cfg.seed = 99;
  const auto script = make_op_script(fabric, cfg);

  StoreOptions so;
  so.dir = dir.path();
  so.snapshot_every_ops = 0;  // manual only; everything replays from the log
  std::string error;
  std::vector<std::uint8_t> before;
  {
    auto store = PersistentController::open(fabric, config, FlowHasher{3}, 3, so, &error);
    ASSERT_NE(store, nullptr) << error;
    for (const Op& op : script) ASSERT_TRUE(store->apply(op));
    before = encode_state(store->controller());
  }
  auto reopened = PersistentController::open(fabric, config, FlowHasher{3}, 3, so, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->recovery().replayed, script.size());
  EXPECT_EQ(encode_state(reopened->controller()), before);
}

TEST(PersistRecovery, BootsFromOpLogTornBeforeTheMagicStamp) {
  const auto fabric = build_fattree(FatTreeParams::scaled(2, 4, 2));
  const DuetConfig config;
  for (const std::string stamp : {"", "DUETO"}) {  // 0-byte file, torn magic
    TempDir dir;
    StoreOptions so;
    so.dir = dir.path();
    // kill -9 between open(O_CREAT) and the magic write leaves exactly this
    // file behind; boot must repair it, not demand manual removal.
    {
      std::ofstream f{dir.path() + "/oplog.duet", std::ios::binary};
      f.write(stamp.data(), static_cast<std::streamsize>(stamp.size()));
    }
    std::string error;
    auto store = PersistentController::open(fabric, config, FlowHasher{1}, 1, so, &error);
    ASSERT_NE(store, nullptr) << "stamp '" << stamp << "': " << error;
    Op deploy;
    deploy.kind = OpKind::kDeploySmuxes;
    deploy.aggregate = Ipv4Prefix{Ipv4Address{100, 0, 0, 0}, 8};
    deploy.addrs = {fabric.tors.front(), fabric.tors.back()};
    EXPECT_TRUE(store->apply(deploy));
  }
}

TEST(PersistRecovery, RefusesAnOpKindThisBuildDoesNotKnow) {
  // Kind 14 is the retired fast-tier directive; 200 was never assigned. A
  // log written by another build must not boot with either silently skipped.
  const auto fabric = build_fattree(FatTreeParams::scaled(2, 4, 2));
  for (const std::uint8_t kind : {std::uint8_t{14}, std::uint8_t{200}}) {
    TempDir dir;
    {
      auto log = OpLog::open(dir.path() + "/oplog.duet", FsyncPolicy::kNone, 1);
      ASSERT_TRUE(log.has_value());
      Op deploy;
      deploy.kind = OpKind::kDeploySmuxes;
      deploy.aggregate = Ipv4Prefix{Ipv4Address{100, 0, 0, 0}, 8};
      deploy.addrs = {fabric.tors.front(), fabric.tors.back()};
      ASSERT_EQ(log->append(deploy), 1u);
      Op unknown;
      unknown.kind = static_cast<OpKind>(kind);
      ASSERT_EQ(log->append(unknown), 2u);
    }
    StoreOptions so;
    so.dir = dir.path();
    std::string error;
    EXPECT_EQ(PersistentController::open(fabric, DuetConfig{}, FlowHasher{1}, 1, so, &error),
              nullptr)
        << "kind " << int{kind};
    EXPECT_EQ(error, "op log contains an unknown op kind (version skew) at seq 2")
        << "kind " << int{kind};
  }
}

// --- snapshot compaction bound ------------------------------------------------

TEST(PersistSnapshot, ReplayLengthIsBoundedByOpsSinceLastSnapshot) {
  const auto fabric = build_fattree(FatTreeParams::scaled(2, 4, 2));
  const DuetConfig config;
  TempDir dir;
  OpScriptConfig cfg;
  cfg.seed = 7;
  cfg.steps = 33;
  const auto script = make_op_script(fabric, cfg);

  StoreOptions so;
  so.dir = dir.path();
  so.snapshot_every_ops = 5;
  std::string error;
  std::uint64_t expected_tail = 0;
  {
    auto store = PersistentController::open(fabric, config, FlowHasher{7}, 7, so, &error);
    ASSERT_NE(store, nullptr) << error;
    for (const Op& op : script) ASSERT_TRUE(store->apply(op));
    EXPECT_LT(store->ops_since_snapshot(), 5u);  // auto-compaction kept up
    expected_tail = store->ops_since_snapshot();
  }
  auto reopened = PersistentController::open(fabric, config, FlowHasher{7}, 7, so, &error);
  ASSERT_NE(reopened, nullptr) << error;
  // The compaction bound: recovery replays only the post-snapshot tail, no
  // matter how long the op history is.
  EXPECT_EQ(reopened->recovery().replayed, expected_tail);
  EXPECT_LE(reopened->recovery().replayed, so.snapshot_every_ops);

  // snapshot_now empties the tail entirely.
  ASSERT_TRUE(reopened->snapshot_now());
  EXPECT_EQ(reopened->ops_since_snapshot(), 0u);
  reopened.reset();
  auto again = PersistentController::open(fabric, config, FlowHasher{7}, 7, so, &error);
  ASSERT_NE(again, nullptr) << error;
  EXPECT_EQ(again->recovery().replayed, 0u);
}

// --- state image --------------------------------------------------------------

TEST(PersistImage, CaptureEncodeDecodeIsStable) {
  const auto fabric = build_fattree(FatTreeParams::scaled(2, 4, 2));
  const DuetConfig config;
  DuetController ctl{fabric, config, FlowHasher{5}, 5};
  for (const Op& op : make_op_script(fabric, {.steps = 20, .seed = 5})) {
    ASSERT_TRUE(apply_op(ctl, op));
  }
  const auto image = ControllerAccess::capture(ctl);
  const auto bytes = encode_image(image);
  const auto decoded = decode_image(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(encode_image(*decoded), bytes);  // canonical: re-encode is identity

  // restore() rebuilds a fresh controller to the same logical state.
  DuetController fresh{fabric, config, FlowHasher{5}, 5};
  ControllerAccess::restore(fresh, *decoded);
  EXPECT_EQ(encode_state(fresh), encode_state(ctl));
}

// --- ops protocol -------------------------------------------------------------

TEST(PersistCtlProtocol, RequestAndResponseRoundTrip) {
  const std::vector<std::string> argv{"add-vip", "100.0.1.1", "10.0.0.1"};
  const auto decoded = decode_request(encode_request(argv));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, argv);

  const CtlResponse response{1, "no such VIP"};
  const auto back = decode_response(encode_response(response));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, 1);
  EXPECT_EQ(back->text, "no such VIP");
  EXPECT_FALSE(back->ok());
}

TEST(PersistCtlProtocol, ClientReportsTransportFailureOnMissingSocket) {
  CtlClientOptions opts;
  opts.connect_timeout_ms = 100;
  opts.request_timeout_ms = 100;
  opts.retries = 1;
  opts.backoff_ms = 10;
  CtlClient client{"/tmp/definitely-not-a-duetd.sock", opts};
  EXPECT_FALSE(client.request({"ping"}).has_value());
}

TEST(PersistCtlProtocol, HugeClaimedArgcIsRejectedNotAllocated) {
  // A malformed frame claiming 4 billion args in a 4-byte payload must be
  // rejected up front, not turned into a ~128 GB reserve() and a bad_alloc.
  ByteWriter w;
  w.u32(0xFFFFFFFFu);
  const auto bytes = std::move(w).take();
  EXPECT_FALSE(decode_request(bytes).has_value());
}

TEST(PersistCtlProtocol, DeliveredRequestIsNeverResent) {
  TempDir dir;
  const std::string sock = dir.path() + "/ctl.sock";
  std::string error;
  const int listen_fd = ctl_listen(sock, &error);
  ASSERT_GE(listen_fd, 0) << error;

  // A server that receives the request and then loses the reply: every
  // accepted connection stands for one (possibly applied) delivery.
  std::atomic<int> accepted{0};
  std::atomic<bool> stop{false};
  std::thread server{[&] {
    while (!stop.load()) {
      pollfd pfd{listen_fd, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      ++accepted;
      (void)ctl_recv_frame(fd, 200);  // read the request fully, reply never comes
      ::close(fd);
    }
  }};

  CtlClientOptions opts;
  opts.connect_timeout_ms = 200;
  opts.request_timeout_ms = 200;
  opts.retries = 3;  // must cover connect/send only, never a delivered request
  opts.backoff_ms = 1;
  CtlClient client{sock, opts};
  EXPECT_FALSE(client.request({"add-vip", "100.0.3.1", "10.0.0.1"}).has_value());

  stop.store(true);
  server.join();
  ::close(listen_fd);
  // At-most-once: the mutation was delivered exactly once; a retrying client
  // would have shown 4 connections (and risked double-apply on the daemon).
  EXPECT_EQ(accepted.load(), 1);
}

// --- daemon -------------------------------------------------------------------

TEST(PersistDaemon, MutateCrashRecoverServesRecoveredState) {
  TempDir dir;
  DuetdOptions opts;
  opts.data_dir = dir.path();
  opts.port = 0;
  opts.mux_workers = 1;
  opts.snapshot_every_ops = 0;  // force recovery to replay the whole log
  opts.engine = SmuxEngine::kStateless;  // every settled VIP is fast-tier eligible
  {
    Duetd daemon{opts};
    std::string error;
    if (!daemon.start(&error)) GTEST_SKIP() << "daemon start failed (" << error << ")";

    EXPECT_EQ(daemon.handle({"ping"}).text, "pong");
    EXPECT_TRUE(daemon.handle({"add-vip", "100.0.1.1", "10.0.0.1", "10.0.0.2"}).ok());
    EXPECT_TRUE(daemon.handle({"add-dip", "100.0.1.1", "10.0.0.3"}).ok());
    EXPECT_TRUE(daemon.handle({"add-vip", "100.0.2.1", "10.0.1.1"}).ok());
    // §4.2 operator migration round trip: onto an HMux and back.
    EXPECT_TRUE(daemon.handle({"migrate", "100.0.1.1", "0"}).ok());
    EXPECT_TRUE(daemon.handle({"migrate", "100.0.1.1", "smux"}).ok());
    EXPECT_TRUE(daemon.handle({"migrate", "100.0.2.1", "1"}).ok());
    EXPECT_TRUE(daemon.handle({"audit"}).ok());
    EXPECT_NE(daemon.handle({"stats"}).text.find("fast tier:"), std::string::npos);
    // The retired fast-tier directive is no longer a command.
    EXPECT_EQ(daemon.handle({"rebuild-fast-tier"}).status, 2);

    // Validation failures are server-reported (status 1/2), never aborts.
    EXPECT_EQ(daemon.handle({"add-vip", "100.0.1.1", "10.0.0.9"}).status, 1);  // duplicate
    EXPECT_EQ(daemon.handle({"add-dip", "100.0.9.9", "10.0.0.9"}).status, 1);  // unknown VIP
    EXPECT_EQ(daemon.handle({"remove-dip", "100.0.1.1", "10.9.9.9"}).status, 1);
    EXPECT_EQ(daemon.handle({"add-vip", "9.9.9.9", "10.0.0.9"}).status, 1);  // outside /8
    EXPECT_EQ(daemon.handle({"migrate", "100.0.1.1", "bogus"}).status, 2);
    EXPECT_EQ(daemon.handle({"frobnicate"}).status, 2);

    // The ops socket speaks the same surface as handle().
    CtlClient client{daemon.socket_path()};
    const auto pong = client.request({"ping"});
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->text, "pong");

    // kill -9: no drain, no snapshot — the destructor path stops the serving
    // threads but persists nothing beyond what the WAL already holds.
    daemon.stop(/*snapshot=*/false);
  }

  Duetd reborn{opts};
  std::string error;
  if (!reborn.start(&error)) GTEST_SKIP() << "daemon restart failed (" << error << ")";
  EXPECT_TRUE(reborn.store().recovery().recovered);
  EXPECT_EQ(reborn.store().recovery().audit_summary, "clean");
  // The reborn serving path re-admits its settled stateless VIPs to the fast
  // tier on its own: the first probes already hit it.
  if (auto probe = runtime::UdpSocket::bind(runtime::Endpoint{Ipv4Address{127, 0, 0, 1}, 0})) {
    const auto fast_hits = [&reborn] { return reborn.mux().worker_stats()[0].fast_hits; };
    for (int i = 0; i < 5 && fast_hits() == 0; ++i) {
      EXPECT_GE(runtime::probe_until_echo(*probe, reborn.listen_endpoint(),
                                          Ipv4Address{100, 0, 1, 1}, 1000.0),
                0.0);
    }
    EXPECT_GT(fast_hits(), 0u) << "the recovered stateless VIP never hit the fast tier";
  }
  const auto& ctl = reborn.store().controller();
  EXPECT_EQ(ctl.vip_count(), 2u);
  EXPECT_EQ(ctl.dips_of(Ipv4Address{100, 0, 1, 1}).size(), 3u);
  // 100.0.1.1 ended on the SMux pool; 100.0.2.1 kept its HMux home.
  EXPECT_EQ(ctl.owner_of(Ipv4Address{100, 0, 1, 1}), DuetController::Owner::kSmux);
  EXPECT_EQ(ctl.hmux_home(Ipv4Address{100, 0, 2, 1}).value_or(kInvalidSwitch), 1u);
  EXPECT_TRUE(reborn.handle({"audit"}).ok());
  EXPECT_TRUE(reborn.handle({"drain"}).ok());
  EXPECT_TRUE(reborn.drain_requested());
  reborn.stop(/*snapshot=*/true);
  // The shutdown snapshot means the NEXT boot replays nothing.
  Duetd third{opts};
  if (!third.start(&error)) GTEST_SKIP() << "daemon restart failed (" << error << ")";
  EXPECT_EQ(third.store().recovery().replayed, 0u);
  EXPECT_EQ(third.store().controller().vip_count(), 2u);
  third.stop(false);
}

TEST(PersistDaemon, StopReturnsWithoutWaitingOutTheOpsPoll) {
  // The ops thread waits on its listening socket; stop() must interrupt that
  // wait, not let it time out. Three daemons, each idle long enough that the
  // ops thread is blocked when stop() arrives.
  for (int run = 0; run < 3; ++run) {
    TempDir dir;
    DuetdOptions opts;
    opts.data_dir = dir.path();
    opts.port = 0;
    opts.mux_workers = 1;
    Duetd daemon{opts};
    std::string error;
    if (!daemon.start(&error)) GTEST_SKIP() << "daemon start failed (" << error << ")";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto t0 = std::chrono::steady_clock::now();
    daemon.stop(/*snapshot=*/false);
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    EXPECT_LT(ms, 50.0) << "stop() took " << ms << " ms (run " << run << ")";
  }
}

TEST(PersistDaemon, AddVipServesWithoutWaitingForTheTick) {
  auto probe = runtime::UdpSocket::bind(runtime::Endpoint{Ipv4Address{127, 0, 0, 1}, 0});
  if (!probe.has_value()) GTEST_SKIP() << "no loopback UDP sockets in this sandbox";
  TempDir dir;
  DuetdOptions opts;
  opts.data_dir = dir.path();
  opts.port = 0;
  opts.mux_workers = 1;
  Duetd daemon{opts};
  std::string error;
  if (!daemon.start(&error)) GTEST_SKIP() << "daemon start failed (" << error << ")";

  // Each add-vip must serve within 10 ms of its acknowledgement. Applied on
  // the 50 ms serving tick, a change would wait U(0, 50) ms, so 15 of 20
  // under 10 ms would happen with probability ~2e-7; applied on the wake-up
  // it takes well under a millisecond, leaving room for a preempted sample.
  constexpr int kAdds = 20;
  int prompt = 0;
  for (int i = 1; i <= kAdds; ++i) {
    const std::string vip = "100.0.3." + std::to_string(i);
    ASSERT_TRUE(daemon.handle({"add-vip", vip, "10.0.3." + std::to_string(i)}).ok());
    const double lag_ms = runtime::probe_until_echo(*probe, daemon.listen_endpoint(),
                                                    *Ipv4Address::parse(vip), 1000.0);
    ASSERT_GE(lag_ms, 0.0) << "no echo within 1 s of add-vip " << vip;
    if (lag_ms < 10.0) ++prompt;
  }
  EXPECT_GE(prompt, 15) << "add-vips served within 10 ms: " << prompt << " of " << kAdds;

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  runtime::drain_probe(*probe);
  ASSERT_TRUE(daemon.handle({"remove-vip", "100.0.3.1"}).ok());
  EXPECT_LT(runtime::probe_until_echo(*probe, daemon.listen_endpoint(), Ipv4Address{100, 0, 3, 1},
                                      200.0, 20.0),
            0.0)
      << "the removed VIP still echoes";
  daemon.stop(/*snapshot=*/false);
}

TEST(PersistDaemon, AddVipWithFreshDipsWakesEachWorkerOnce) {
  auto probe = runtime::UdpSocket::bind(runtime::Endpoint{Ipv4Address{127, 0, 0, 1}, 0});
  if (!probe.has_value()) GTEST_SKIP() << "no loopback UDP sockets in this sandbox";
  TempDir dir;
  DuetdOptions opts;
  opts.data_dir = dir.path();
  opts.port = 0;
  opts.mux_workers = 2;
  Duetd daemon{opts};
  std::string error;
  if (!daemon.start(&error)) GTEST_SKIP() << "daemon start failed (" << error << ")";
  const auto wakes = [&daemon] {
    std::vector<std::uint64_t> out;
    for (const auto& w : daemon.mux().worker_stats()) out.push_back(w.wakes);
    return out;
  };

  // One add-vip bringing 8 DIPs the serving path has never seen: their echo
  // endpoints ride in the VIP's own update, so each worker is woken once
  // for the op, not once per DIP plus once for the VIP.
  const auto before = wakes();
  std::vector<std::string> argv{"add-vip", "100.0.4.1"};
  for (int i = 1; i <= 8; ++i) argv.push_back("10.0.4." + std::to_string(i));
  ASSERT_TRUE(daemon.handle(argv).ok());
  ASSERT_GE(runtime::probe_until_echo(*probe, daemon.listen_endpoint(),
                                      Ipv4Address{100, 0, 4, 1}, 1000.0),
            0.0)
      << "the VIP never echoed";
  // The probe reached one worker; wait until every worker has been woken,
  // then give a straggling extra wake-up time to land.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  for (auto now = wakes(); std::chrono::steady_clock::now() < deadline; now = wakes()) {
    bool all = true;
    for (std::size_t i = 0; i < now.size(); ++i) all = all && now[i] > before[i];
    if (all) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto after = wakes();
  ASSERT_EQ(after.size(), 2u);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], 1u) << "worker " << i << " wake-ups for one add-vip";
  }

#if defined(__linux__)
  // Every serving-side thread carries its name, for per-thread CPU splits.
  std::multiset<std::string> names;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) names.insert(name);
  }
  for (const char* name : {"duet-mux-0", "duet-mux-1", "duet-echo", "duet-ops"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
#endif
  daemon.stop(/*snapshot=*/false);
}

}  // namespace
}  // namespace duet::persist
