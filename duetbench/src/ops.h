// The seeded stream of mutating ops sent to duetd's ops socket beside the
// traffic, and the loop that paces it and times each acknowledgement and
// each new VIP's first echo.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "client.h"
#include "persist/op_log.h"
#include "runtime/udp.h"
#include "trace.h"

namespace duetbench {

// A measured VIP: installed at set-up, carries the client's traffic, never
// removed (its pool may change).
struct ServedVip {
  duet::Ipv4Address vip;
  std::vector<duet::Ipv4Address> dips;
};

enum class OpKind { kAddVip, kAddDip, kRemoveDip, kMigrate, kRemoveVip };
inline constexpr std::size_t kOpKinds = 5;
const char* op_name(OpKind kind);

struct OpStep {
  OpKind kind = OpKind::kAddVip;
  std::vector<std::string> argv;
  duet::persist::Op op;        // the same mutation, for the controller twin
  std::size_t churn = 0;       // add-vip / remove-vip: churn VIP number
  std::size_t served = SIZE_MAX;  // add-dip / remove-dip / migrate: served VIP index
  double due_s = 0.0;          // offset from the stream start
};

struct OpMix {
  double ops_per_s = 50.0;
  // false: add-vip and remove-vip of churn VIPs, alternately. true: a fixed
  // pattern that also has add-dip, remove-dip and migrate (to a switch and
  // back) on served VIPs.
  bool full = false;
  std::vector<std::uint32_t> migrate_targets;  // switch ids that accept VIPs
};

// The whole stream for `seconds`, generated from `seed` alone.
std::vector<OpStep> make_op_stream(const OpMix& mix, const std::vector<ServedVip>& served,
                                   double seconds, std::uint64_t seed);

struct OpsResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // refused, no reply, or a VIP that never answered
  std::vector<double> ack_ms;                  // every acknowledged op
  std::vector<double> ack_ms_by_kind[kOpKinds];
  std::vector<double> ready_ms;                // add-vip ack -> first echo
  std::vector<std::string> errors;             // first few, for the log
  double thread_cpu_s = 0.0;
};

// Sends `steps` over the ops socket on their schedule from `start_ns`,
// probing each new VIP from `probe` until it echoes. Removing a served
// VIP's DIP is reported to `client` before the op is sent, so the remap
// oracle allows the flows that move.
OpsResult drive_ops(const std::vector<OpStep>& steps, const std::string& socket_path,
                    duet::runtime::UdpSocket& probe, duet::runtime::Endpoint mux,
                    std::uint64_t start_ns, OpenLoopClient* client, Tracer& tracer);

// Sends one datagram to `vip` from `probe` every 0.5 ms until an echo comes
// back or `timeout_ms` passes; returns the wait in ms, or a negative value.
double probe_until_echo(duet::runtime::UdpSocket& probe, duet::runtime::Endpoint mux,
                        duet::Ipv4Address vip, double timeout_ms);

}  // namespace duetbench
