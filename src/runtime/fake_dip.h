// Echo endpoints standing in for real DIP servers.
//
// The pool owns ONE UDP socket, bound once at construction to INADDR_ANY on
// an ephemeral port and pinned to the loopback device (SO_BINDTODEVICE
// "lo"), so it takes no traffic from any other interface. Each DIP is an
// IDENTITY: a distinct loopback address in 127.0.0.0/8 on that one port
// (never 127.0.0.1, never the /8's network or broadcast address). Adding a
// DIP is a table insert — no syscall, no fd, no buffer.
//
// IP_PKTINFO works both ways. On receive it tells the pool which identity a
// datagram was sent to. An arriving IP-in-IP datagram is validated with
// peek_encap, decapsulated by dropping the outer 20 bytes — the nested
// total-length chain stays valid, so the inner datagram is byte-for-byte
// what the client originally sent — and echoed to (reply_addr, inner
// src_port). On send, ipi_spec_dst sets each echo's source address to the
// identity it arrived at.
//
// This is the paper's DSR analog (§2.1): replies bypass the mux entirely,
// and because every DIP answers from its own identity endpoint, the reply's
// kernel source endpoint tells the load generator exactly which DIP served
// the flow — the observable the sim/live equivalence test keys on.
//
// Checks: a datagram whose outer destination is not the DIP its identity
// belongs to (or that is not valid IP-in-IP) counts in rejects_at(that DIP)
// and is not echoed, so a mux bug that skips encap or maps a DIP to the
// wrong endpoint shows up as rejects, not silent success. A datagram to an
// unregistered address on the pool's port is never echoed.
//
// Linux only (recvmmsg/sendmmsg with per-message control buffers,
// IP_PKTINFO, SO_BINDTODEVICE): elsewhere kFakeDipPoolAvailable is false,
// add_dips returns no endpoints and start() fails.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/ip.h"
#include "runtime/event_loop.h"
#include "runtime/udp.h"

namespace duet::runtime {

#if defined(__linux__)
inline constexpr bool kFakeDipPoolAvailable = true;
#else
inline constexpr bool kFakeDipPoolAvailable = false;
#endif

class FakeDipPool {
 public:
  struct Options {
    Ipv4Address reply_addr{127, 0, 0, 1};
    std::size_t batch = 64;
    int tick_ms = 50;  // stop-flag re-check period
  };

  FakeDipPool() : FakeDipPool(Options{}) {}
  explicit FakeDipPool(Options options);
  ~FakeDipPool();
  FakeDipPool(const FakeDipPool&) = delete;
  FakeDipPool& operator=(const FakeDipPool&) = delete;

  // Gives each of `dips` an identity endpoint and returns them in order (to
  // hand to MuxServer::map_dip); nullopt where the pool has no socket or its
  // identities ran out. A DIP already in the pool keeps its endpoint. Works
  // before start() and on a RUNNING pool: the identity echoes from the moment
  // the call returns.
  std::vector<std::optional<Endpoint>> add_dips(std::span<const Ipv4Address> dips);
  // One-DIP add_dips.
  std::optional<Endpoint> add_dip(Ipv4Address dip);

  bool start();
  void shutdown();
  void join();

  // Datagrams seen / rejected at this DIP's identity.
  std::uint64_t packets_at(Ipv4Address dip) const;
  std::uint64_t rejects_at(Ipv4Address dip) const;
  std::uint64_t total_packets() const;

 private:
  struct Slot {
    Ipv4Address dip;
    std::uint64_t packets = 0;
    std::uint64_t rejects = 0;
  };
  // recvmmsg/sendmmsg arena with per-message control buffers (fake_dip.cc).
  struct Io;

  // Echoes the socket's queued datagrams. Pool thread only.
  void pump();

  Options opts_;
  UdpSocket sock_;
  std::uint16_t port_ = 0;
  std::unique_ptr<Io> io_;
  // Guards slots_ and index_; the pool thread holds it while it classifies
  // one received batch, never across a syscall.
  mutable std::mutex mu_;
  std::vector<Slot> slots_;  // slot i is identity kFirstIdentity + i
  std::unordered_map<Ipv4Address, std::uint32_t> index_;  // DIP -> slot
  std::atomic<bool> stop_{false};
  std::thread thread_;
  EventLoop loop_;
};

}  // namespace duet::runtime
