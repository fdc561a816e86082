// Non-blocking UDP sockets and batched datagram I/O for the live runtime.
//
// The serving path (runtime/mux_server.h) moves Duet's wire-format packets
// (net/wire.h) over real sockets. Throughput at software-LB rates comes from
// amortizing syscalls: on Linux every socket read/write moves a BATCH of
// datagrams via recvmmsg/sendmmsg into a preallocated buffer pool (BatchIo),
// one syscall per batch instead of per packet. Platforms without the mmsg
// calls fall back to recvfrom/sendto loops behind the same interface
// (kBatchIoAvailable tells callers which world they are in, so CI legs can
// skip throughput assertions gracefully).
//
// Buffers carry kIpv4HeaderBytes of HEADROOM in front of every received
// datagram, sized for exactly one more encap layer: the mux writes the outer
// IP-in-IP header into the headroom (wire.h encapsulate_on_wire) and
// transmits without copying the payload.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/ip.h"
#include "net/wire.h"

struct sockaddr_in;  // avoid dragging <netinet/in.h> into every include site

namespace duet::runtime {

// True when the build uses recvmmsg/sendmmsg batching (Linux); false on the
// recvfrom/sendto fallback.
extern const bool kBatchIoAvailable;

// CPU affinity for the sharded-worker scale-out (MuxServerOptions::pin_cpus):
// pins the CALLING thread to `cpu`. Returns false when pinning is
// unsupported (non-Linux) or refused (sandboxed cpuset, cpu offline) —
// callers degrade to unpinned, never fail. online_cpus() never returns 0.
bool pin_thread_to_cpu(std::size_t cpu) noexcept;
std::size_t online_cpus() noexcept;

// Names the CALLING thread (Linux: pthread_setname_np, at most 15
// characters, shown in /proc/self/task/*/comm, top -H and gdb) so a
// per-thread CPU split can tell the mux workers (duet-mux-N), the echo pool
// (duet-echo) and duetd's ops thread (duet-ops) apart. A no-op elsewhere.
void name_this_thread(const char* name) noexcept;

// A real (kernel-routable) UDP endpoint. Distinct from the SIMULATED
// addresses inside the wire format: the runtime maps simulated DIP/client
// addresses onto loopback endpoints (see MuxServer::map_dip).
struct Endpoint {
  Ipv4Address addr;
  std::uint16_t port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
  std::string to_string() const;
};

// Move-only RAII wrapper over a bound, non-blocking UDP socket with large
// kernel buffers. `reuse_port` joins an SO_REUSEPORT group: several sockets
// bound to the same endpoint, the kernel sharding ingress flows between them
// (the multi-worker mux's shard mechanism).
class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  // Binds to `at` (port 0 = kernel-assigned). Returns nullopt on failure.
  static std::optional<UdpSocket> bind(Endpoint at, bool reuse_port = false);

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  // The actually-bound endpoint (resolves port 0).
  Endpoint local() const;

  // Single-datagram send; returns false on any failure (including EAGAIN).
  bool send_to(std::span<const std::uint8_t> bytes, Endpoint to) const;

 private:
  int fd_ = -1;
};

// One received datagram; `bytes` points into the owning BatchIo's pool and
// is valid until its next recv_batch call. `bytes.data() - headroom()` is
// writable scratch for prepending one encap header.
struct RxPacket {
  std::span<std::uint8_t> bytes;
  Endpoint from;
};

// One datagram to transmit. `data` may point into the rx pool (the zero-copy
// forward path) or anywhere else alive across the send_batch call.
struct TxPacket {
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
  Endpoint to;
};

// Preallocated buffers plus the mmsghdr/iovec/sockaddr scratch arrays for
// batched I/O on one socket. Not thread-safe: one BatchIo per worker.
class BatchIo {
 public:
  explicit BatchIo(std::size_t batch, std::size_t mtu = 2048,
                   std::size_t headroom = kIpv4HeaderBytes);
  ~BatchIo();
  BatchIo(const BatchIo&) = delete;
  BatchIo& operator=(const BatchIo&) = delete;

  std::size_t batch() const noexcept { return batch_; }
  std::size_t headroom() const noexcept { return headroom_; }

  // Receives up to batch() datagrams without blocking; writes them to
  // out[0..n) and returns n (0 when the socket is drained). Requires
  // out.size() >= batch() — callers size their descriptor array once at
  // setup, so the receive path compiles down with no growth branch at all
  // (the hot-path purity gate, DESIGN.md §14, checks exactly that).
  // Overwrites the pool, invalidating spans from the previous call.
  std::size_t recv_batch(int fd, std::span<RxPacket> out);

  // Sends as many of `items` as the socket accepts, in order, waiting up to
  // `flush_wait_ms` for buffer space before giving up on the remainder.
  // Returns the number actually handed to the kernel.
  std::size_t send_batch(int fd, std::span<const TxPacket> items, int flush_wait_ms = 5);

 private:
  std::size_t batch_;
  std::size_t mtu_;
  std::size_t headroom_;
  std::size_t stride_;
  std::vector<std::uint8_t> pool_;
  // Opaque scratch (mmsghdr/iovec/sockaddr_in arrays on Linux); hidden so
  // this header stays free of <sys/socket.h>. Destroyed out-of-line in
  // udp.cc where Scratch is complete.
  struct Scratch;
  std::unique_ptr<Scratch> scratch_;
};

}  // namespace duet::runtime

template <>
struct std::hash<duet::runtime::Endpoint> {
  std::size_t operator()(const duet::runtime::Endpoint& e) const noexcept {
    return std::hash<duet::Ipv4Address>{}(e.addr) * 65599 + e.port;
  }
};
