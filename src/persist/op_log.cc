#include "persist/op_log.h"

#include "duet/controller.h"

namespace duet::persist {

namespace {

constexpr std::uint8_t kOpFrame = 1;

void encode_demand(ByteWriter& w, const VipDemand& d) {
  w.u32(d.id);
  w.u32(d.vip.value());
  w.f64(d.total_gbps);
  w.u64(d.dip_count);
  w.u32(static_cast<std::uint32_t>(d.ingress_gbps.size()));
  for (const auto& [sw, gbps] : d.ingress_gbps) {
    w.u32(sw);
    w.f64(gbps);
  }
  w.u32(static_cast<std::uint32_t>(d.dip_tor_gbps.size()));
  for (const auto& [sw, gbps] : d.dip_tor_gbps) {
    w.u32(sw);
    w.f64(gbps);
  }
}

// The smallest encoded VipDemand (no ingress or ToR entries), so a claimed
// demand count is checked against the bytes left before anything is sized.
constexpr std::size_t kMinDemandBytes = 4 + 4 + 8 + 8 + 4 + 4;

bool decode_demand(ByteReader& r, VipDemand& d) {
  d.id = r.u32().value_or(0);
  d.vip = Ipv4Address{r.u32().value_or(0)};
  d.total_gbps = r.f64().value_or(0.0);
  d.dip_count = static_cast<std::size_t>(r.u64().value_or(0));
  const std::uint32_t n_ingress = r.u32().value_or(0);
  if (!r.ok() || n_ingress > r.remaining() / 12) return false;
  d.ingress_gbps.reserve(n_ingress);
  for (std::uint32_t i = 0; i < n_ingress; ++i) {
    const std::uint32_t sw = r.u32().value_or(0);
    d.ingress_gbps.emplace_back(sw, r.f64().value_or(0.0));
  }
  const std::uint32_t n_tors = r.u32().value_or(0);
  if (!r.ok() || n_tors > r.remaining() / 12) return false;
  d.dip_tor_gbps.reserve(n_tors);
  for (std::uint32_t i = 0; i < n_tors; ++i) {
    const std::uint32_t sw = r.u32().value_or(0);
    d.dip_tor_gbps.emplace_back(sw, r.f64().value_or(0.0));
  }
  return r.ok();
}

std::vector<Ipv4Address> to_addresses(const std::vector<std::uint32_t>& raw) {
  std::vector<Ipv4Address> out;
  out.reserve(raw.size());
  for (const std::uint32_t v : raw) out.push_back(Ipv4Address{v});
  return out;
}

}  // namespace

const char* to_string(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kDeploySmuxes: return "deploy-smuxes";
    case OpKind::kAddVip: return "add-vip";
    case OpKind::kRemoveVip: return "remove-vip";
    case OpKind::kAddDip: return "add-dip";
    case OpKind::kRemoveDip: return "remove-dip";
    case OpKind::kReportHealth: return "report-health";
    case OpKind::kInstallPortRule: return "install-port-rule";
    case OpKind::kRemovePortRule: return "remove-port-rule";
    case OpKind::kSetWeights: return "set-weights";
    case OpKind::kSetEngineOverride: return "set-engine";
    case OpKind::kRunEpoch: return "run-epoch";
    case OpKind::kSwitchFailure: return "switch-failure";
    case OpKind::kSmuxFailure: return "smux-failure";
    case OpKind::kMigrateVip: return "migrate-vip";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_op(const Op& op) {
  ByteWriter w;
  w.u64(op.seq);
  w.f64(op.t_us);
  w.u8(static_cast<std::uint8_t>(op.kind));
  w.u32(op.vip.value());
  w.u32(op.dip.value());
  w.u32(op.sw);
  w.u16(op.port);
  w.u8(op.flag ? 1 : 0);
  w.u8(op.engine);
  w.u32(op.aggregate.address().value());
  w.u8(op.aggregate.length());
  w.u32(static_cast<std::uint32_t>(op.addrs.size()));
  for (const std::uint32_t a : op.addrs) w.u32(a);
  w.u32(static_cast<std::uint32_t>(op.weights.size()));
  for (const std::uint32_t v : op.weights) w.u32(v);
  w.u32(static_cast<std::uint32_t>(op.demands.size()));
  for (const VipDemand& d : op.demands) encode_demand(w, d);
  return std::move(w).take();
}

std::optional<Op> decode_op(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  Op op;
  op.seq = r.u64().value_or(0);
  op.t_us = r.f64().value_or(0.0);
  op.kind = static_cast<OpKind>(r.u8().value_or(0));
  op.vip = Ipv4Address{r.u32().value_or(0)};
  op.dip = Ipv4Address{r.u32().value_or(0)};
  op.sw = r.u32().value_or(kInvalidSwitch);
  op.port = r.u16().value_or(0);
  op.flag = r.u8().value_or(0) != 0;
  op.engine = r.u8().value_or(kEngineClear);
  const Ipv4Address agg_addr{r.u32().value_or(0)};
  const std::uint8_t agg_len = r.u8().value_or(0);
  if (agg_len > 32) return std::nullopt;
  op.aggregate = Ipv4Prefix{agg_addr, agg_len};
  const std::uint32_t n_addrs = r.u32().value_or(0);
  if (!r.ok() || n_addrs > r.remaining() / 4) return std::nullopt;
  op.addrs.reserve(n_addrs);
  for (std::uint32_t i = 0; i < n_addrs; ++i) op.addrs.push_back(r.u32().value_or(0));
  const std::uint32_t n_weights = r.u32().value_or(0);
  if (!r.ok() || n_weights > r.remaining() / 4) return std::nullopt;
  op.weights.reserve(n_weights);
  for (std::uint32_t i = 0; i < n_weights; ++i) op.weights.push_back(r.u32().value_or(0));
  const std::uint32_t n_demands = r.u32().value_or(0);
  if (!r.ok() || n_demands > r.remaining() / kMinDemandBytes) return std::nullopt;
  op.demands.resize(n_demands);
  for (std::uint32_t i = 0; i < n_demands; ++i) {
    if (!decode_demand(r, op.demands[i])) return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  return op;
}

bool apply_op(DuetController& controller, const Op& op) {
  // The journal clock is part of the op: replay stamps telemetry events at
  // the times they originally carried, keeping replayed journals comparable.
  controller.set_clock_us(op.t_us);
  switch (op.kind) {
    case OpKind::kDeploySmuxes: {
      std::vector<SwitchId> tors(op.addrs.begin(), op.addrs.end());
      controller.deploy_smuxes(tors, op.aggregate);
      return true;
    }
    case OpKind::kAddVip:
      controller.add_vip(op.vip, to_addresses(op.addrs));
      return true;
    case OpKind::kRemoveVip:
      controller.remove_vip(op.vip);
      return true;
    case OpKind::kAddDip:
      controller.add_dip(op.vip, op.dip);
      return true;
    case OpKind::kRemoveDip:
      controller.remove_dip(op.vip, op.dip);
      return true;
    case OpKind::kReportHealth:
      controller.report_dip_health(op.vip, op.dip, op.flag);
      return true;
    case OpKind::kInstallPortRule:
      controller.install_port_rule(op.vip, op.port, to_addresses(op.addrs));
      return true;
    case OpKind::kRemovePortRule:
      controller.remove_port_rule(op.vip, op.port);
      return true;
    case OpKind::kSetWeights:
      controller.set_dip_weights(op.vip, op.weights);
      return true;
    case OpKind::kSetEngineOverride:
      controller.set_engine_override(
          op.vip, op.engine == kEngineClear
                      ? std::nullopt
                      : std::optional<SmuxEngine>(static_cast<SmuxEngine>(op.engine)));
      return true;
    case OpKind::kRunEpoch:
      controller.run_epoch(op.demands, op.flag);
      return true;
    case OpKind::kSwitchFailure:
      controller.handle_switch_failure(op.sw);
      return true;
    case OpKind::kSmuxFailure:
      controller.handle_smux_failure(op.sw);
      return true;
    case OpKind::kMigrateVip:
      controller.migrate_vip(op.vip, op.sw == kInvalidSwitch
                                         ? std::nullopt
                                         : std::optional<SwitchId>(op.sw));
      return true;
  }
  return false;  // version skew: a kind this build does not know
}

std::optional<OpLog> OpLog::open(const std::string& path, FsyncPolicy policy,
                                 std::uint64_t next_seq) {
  auto frames = read_frames(path, kOpLogMagic);
  std::optional<std::uint64_t> truncate_to;
  if (frames.ok() && frames.truncated_tail) truncate_to = frames.valid_bytes;
  auto w = FrameWriter::open(path, kOpLogMagic, policy, truncate_to);
  if (!w.has_value()) return std::nullopt;
  OpLog log;
  log.writer_ = std::move(*w);
  log.next_seq_ = next_seq;
  return log;
}

std::optional<std::uint64_t> OpLog::append(Op op) {
  op.seq = next_seq_;
  // The seq is burned even when the append fails: after a write-ok/fsync-fail
  // the record may well be in the file, and re-stamping its seq on the next
  // (acknowledged) op would make replay drop the acknowledged record as a
  // duplicate. Gaps are harmless — replay only requires monotonicity.
  ++next_seq_;
  if (!writer_.append(kOpFrame, encode_op(op))) return std::nullopt;
  ++appended_;
  return op.seq;
}

ReplayResult replay_ops(const std::string& path) {
  ReplayResult result;
  auto frames = read_frames(path, kOpLogMagic);
  if (!frames.ok()) {
    result.error = std::move(frames.error);
    return result;
  }
  result.truncated_tail = frames.truncated_tail;
  std::uint64_t last_seq = 0;
  for (const Frame& f : frames.frames) {
    if (f.type != kOpFrame) continue;
    auto op = decode_op(f.payload);
    if (!op.has_value()) {
      // Parses are versioned by the magic; an undecodable payload behind a
      // valid CRC means writer/reader skew. Treat like a torn tail.
      result.truncated_tail = true;
      break;
    }
    if (op->seq <= last_seq) continue;  // duplicate / regression — drop
    last_seq = op->seq;
    result.ops.push_back(std::move(*op));
  }
  return result;
}

}  // namespace duet::persist
