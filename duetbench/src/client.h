// The benchmark's own open-loop client.
//
// Built only on the public runtime::UdpSocket / BatchIo, so the measuring
// instrument does not move when runtime::LoadGenerator is optimised. Each
// datagram carries its SCHEDULED send time in the stamp (runtime/stamp.h):
// RTT is measured from when the datagram was due, so a stall also charges
// the datagrams queued behind it, and the client reports how late it ran.
// Every echo is byte-compared against the datagram rebuilt from its
// sequence number, and a remap oracle lets a flow change DIP only after a
// DIP of its VIP was removed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/packet.h"
#include "runtime/udp.h"
#include "trace.h"

namespace duetbench {

struct TrafficSpec {
  std::vector<duet::Ipv4Address> vips;
  double pps = 10e3;
  std::size_t packet_bytes = 128;
  // 0 = long-lived flows: datagram k belongs to flow k % flows. Otherwise
  // each flow carries this many datagrams and `flows` flows are interleaved
  // at a time, so first packets are a fixed share of the stream.
  std::size_t packets_per_flow = 0;
  std::size_t flows = 256;
  std::uint64_t seed = 1;
};

struct ClientResult {
  std::uint64_t scheduled = 0;
  std::uint64_t sent = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t received = 0;  // intact echoes
  std::uint64_t integrity_failures = 0;
  std::uint64_t remap_violations = 0;
  std::vector<float> rtt_us;   // per intact echo, from the scheduled send time
  std::vector<float> late_us;  // per datagram: actual send - scheduled
  double thread_cpu_s = 0.0;   // the client thread's own CPU

  std::uint64_t lost() const { return sent - received - integrity_failures; }
};

class OpenLoopClient {
 public:
  OpenLoopClient(TrafficSpec spec, std::vector<duet::runtime::UdpSocket> sockets,
                 duet::runtime::Endpoint target);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  std::size_t flow_of(std::uint64_t seq) const;
  std::size_t vip_index_of(std::size_t flow) const;
  duet::FiveTuple tuple(std::size_t flow) const;
  // The datagram for `seq`, stamped with its scheduled send time.
  void build(std::uint64_t seq, std::uint64_t sched_ns, std::vector<std::uint8_t>& out) const;

  enum class Verdict { kOk, kCorrupt, kRemap };
  // Checks one echo. `seq_out` gets the stamp's sequence number on kOk and
  // kRemap. Call only from one thread at a time.
  Verdict verify(std::span<const std::uint8_t> bytes, duet::runtime::Endpoint from,
                 std::uint64_t* seq_out);

  // Fixes the schedule verify() checks against; run() calls it.
  // Datagrams first_seq .. first_seq+count-1 are due from start_ns.
  void prepare(std::uint64_t start_ns, std::uint64_t first_seq, std::uint64_t count);

  // Sends datagrams first_seq.. (`count` of them) at spec.pps from
  // `start_ns` (steady clock), collecting echoes until every datagram is
  // answered or `linger_s` after the last one was due.
  ClientResult run(std::uint64_t start_ns, std::uint64_t first_seq, std::uint64_t count,
                   double linger_s, Tracer& tracer);

  // Called when a DIP of VIP `vip_index` was removed (thread-safe): flows of
  // that VIP may legally move to another DIP from now on.
  void note_dip_removed(std::size_t vip_index);

  std::uint64_t sched_ns(std::uint64_t seq) const;

 private:
  struct Sock;
  struct FlowSeen {
    std::uint32_t addr = 0;
    std::uint16_t port = 0;
    std::uint32_t removals = 0;  // VIP's removal count when `addr` was seen
  };

  TrafficSpec spec_;
  duet::runtime::Endpoint target_;
  std::vector<std::unique_ptr<Sock>> socks_;
  std::vector<std::uint16_t> ports_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t first_ = 0;
  std::uint64_t count_ = 0;
  double period_ns_ = 0.0;
  std::vector<FlowSeen> seen_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> removals_;
  std::vector<std::uint8_t> expect_;  // verify() scratch
};

}  // namespace duetbench
