// Probing a VIP through a running mux: how the live-update tests and
// bench_live_loopback time a control change until it serves.
//
// A probe is one wire-format UDP datagram addressed to the VIP and sent to
// the mux's listen endpoint. An echo DIP (runtime/fake_dip.h) answers with
// the decapsulated datagram at (reply address, inner source port), so the
// probe socket's own port is the reply address and the echo's inner
// destination names the VIP that answered.
#pragma once

#include <sys/select.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>

#include "net/ip.h"
#include "net/packet.h"
#include "net/wire.h"
#include "runtime/udp.h"

namespace duet::runtime {

// Reads and discards every datagram already queued on `probe`.
inline void drain_probe(const UdpSocket& probe) {
  std::uint8_t buf[2048];
  while (::recv(probe.fd(), buf, sizeof(buf), 0) > 0) {
  }
}

// Sends a probe for `vip` every `resend_ms` until an echo for `vip` reaches
// `probe` or `timeout_ms` passes. Echoes for other VIPs (late answers to
// earlier probes) are discarded. Waits in select(), so it never spins beside
// the workers it is timing. Returns the milliseconds from the first send to
// the echo, or -1 on timeout.
inline double probe_until_echo(const UdpSocket& probe, Endpoint mux, Ipv4Address vip,
                               double timeout_ms, double resend_ms = 1.0) {
  using Clock = std::chrono::steady_clock;
  const FiveTuple tuple{Ipv4Address{10, 99, 0, 1}, vip, probe.local().port, 80, IpProto::kUdp};
  const auto bytes = serialize_packet(Packet{tuple, 64});
  const auto start = Clock::now();
  const auto elapsed_ms = [start] {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  };
  double next_send_ms = 0.0;
  for (double now = 0.0; now < timeout_ms; now = elapsed_ms()) {
    if (now >= next_send_ms) {
      (void)probe.send_to(bytes, mux);
      next_send_ms = now + resend_ms;
    }
    const auto wait_us = static_cast<long>((std::min(next_send_ms, timeout_ms) - now) * 1000.0);
    timeval tv{wait_us / 1000000, static_cast<suseconds_t>(wait_us % 1000000)};
    fd_set readable;
    FD_ZERO(&readable);
    FD_SET(probe.fd(), &readable);
    if (::select(probe.fd() + 1, &readable, nullptr, nullptr, &tv) <= 0) continue;
    std::uint8_t buf[2048];
    for (ssize_t n; (n = ::recv(probe.fd(), buf, sizeof(buf), 0)) > 0;) {
      const auto echo = parse_packet(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
      if (echo.has_value() && echo->tuple().dst == vip) return elapsed_ms();
    }
  }
  return -1.0;
}

}  // namespace duet::runtime
