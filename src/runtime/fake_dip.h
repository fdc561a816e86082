// Echo endpoints standing in for real DIP servers.
//
// Each DIP gets its own loopback UDP socket (one real endpoint per simulated
// backend). An arriving IP-in-IP datagram is validated with peek_encap,
// decapsulated by dropping the outer 20 bytes — the nested total-length
// chain stays valid, so the inner datagram is byte-for-byte what the client
// originally sent — and echoed to (reply_addr, inner src_port).
//
// This is the paper's DSR analog (§2.1): replies bypass the mux entirely,
// and because every DIP answers from its own socket, the reply's kernel
// source endpoint tells the load generator exactly which DIP served the
// flow — the observable the sim/live equivalence test keys on.
//
// Memory: one pool thread serves every socket, and it finishes one socket's
// batch before it reads the next, so the pool owns ONE BatchIo arena and
// one rx/tx scratch shared by all of its sockets. A DIP costs a socket and
// two counters, not an I/O arena: adding one is a bind, not a 132 KB
// zero-fill.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "net/ip.h"
#include "runtime/event_loop.h"
#include "runtime/udp.h"

namespace duet::runtime {

class FakeDipPool {
 public:
  struct Options {
    Ipv4Address bind_addr{127, 0, 0, 1};
    Ipv4Address reply_addr{127, 0, 0, 1};
    std::size_t batch = 64;
    int tick_ms = 50;  // stop-flag re-check period; live adds land on wake
  };

  FakeDipPool() : FakeDipPool(Options{}) {}
  explicit FakeDipPool(Options options);
  ~FakeDipPool();
  FakeDipPool(const FakeDipPool&) = delete;
  FakeDipPool& operator=(const FakeDipPool&) = delete;

  // Binds an echo socket for each of `dips`; returns their real endpoints in
  // order (to hand to MuxServer::map_dip), nullopt where a bind failed.
  // Works before start() and on a RUNNING pool: a live add is bound
  // immediately (the endpoint is valid at once) and registered by the
  // serving loop, which the call wakes once — and only when it queued a
  // socket. duetd binds one control op's fresh DIPs with one call.
  std::vector<std::optional<Endpoint>> add_dips(std::span<const Ipv4Address> dips);
  // One-DIP add_dips.
  std::optional<Endpoint> add_dip(Ipv4Address dip);

  bool start();
  void shutdown();
  void join();

  // Live counters (relaxed): datagrams seen / rejected at this DIP.
  std::uint64_t packets_at(Ipv4Address dip) const;
  std::uint64_t rejects_at(Ipv4Address dip) const;
  std::uint64_t total_packets() const;

 private:
  struct DipSock;
  // Echoes one socket's queued datagrams through the shared arena. Pool
  // thread only.
  void pump(DipSock& ds);
  // Registers queued live adds with the loop. Runs on the pool thread (wake
  // callback).
  void drain_pending();

  Options opts_;
  // The shared I/O arena and scratch (see the header comment).
  BatchIo io_;
  std::vector<RxPacket> rx_;
  std::vector<TxPacket> tx_;
  mutable std::mutex dips_mu_;  // guards dips_ against drain_pending's appends
  std::vector<std::unique_ptr<DipSock>> dips_;
  std::mutex pending_mu_;
  std::vector<std::unique_ptr<DipSock>> pending_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread thread_;
  EventLoop loop_;
};

}  // namespace duet::runtime
