// Ananta baseline (§2.1): the pure software load balancer Duet is compared
// against in Figs 16 and 17.
//
// Architecture: ECMP on the routers spreads every VIP's traffic over N
// SMuxes; each SMux holds the full VIP→DIP map. Provisioning and latency
// are therefore pure functions of total traffic and N, which is all the
// large-scale comparison needs:
//   * smuxes_required() — enough SMuxes that none exceeds its capacity;
//   * median_latency_us() — DC RTT plus the SMux queueing latency at the
//     per-SMux load implied by N.
// An operational pool (AnantaPool) models the §2.1 data path, including the
// fast-path option that lets inter-service traffic bypass the muxes at the
// cost of VIP indirection. Only the unit tests drive it; no bench or example
// does (scripts/reach_baseline.txt).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "duet/config.h"
#include "duet/smux.h"
#include "net/hash.h"

namespace duet {

class AnantaModel {
 public:
  explicit AnantaModel(const DuetConfig& config) : config_(config), probe_(0, FlowHasher{}, config) {}

  // SMuxes so that per-SMux traffic stays within capacity_gbps.
  std::size_t smuxes_required(double total_gbps, double smux_capacity_gbps) const;

  // Median end-to-end RTT (µs) when `total_gbps` is spread over `smuxes`.
  double median_latency_us(double total_gbps, std::size_t smuxes) const;

  // Added-latency distribution sampling at a given per-SMux load.
  double sample_added_latency_us(double per_smux_pps, Rng& rng) const;

  double gbps_to_pps(double gbps) const {
    return gbps * 1e9 / 8.0 / config_.smux_packet_bytes;
  }

 private:
  DuetConfig config_;
  Smux probe_;  // used purely for its latency model
};

// A running pool of SMuxes behind ECMP — the whole Ananta data plane.
class AnantaPool {
 public:
  AnantaPool(std::size_t smux_count, FlowHasher hasher, const DuetConfig& config);

  // Every SMux learns every VIP (§2.1).
  void set_vip(Ipv4Address vip, const std::vector<Ipv4Address>& dips);
  void remove_vip(Ipv4Address vip);

  // Fast path (§2.1): inter-service traffic goes directly to DIPs, skipping
  // the muxes — at the cost of expressing ACLs in terms of DIPs.
  void enable_fast_path(bool on) noexcept { fast_path_ = on; }

  // Routes a packet through the pool (ECMP pick, then SMux encap). With fast
  // path enabled and `intra_dc=true` the packet goes straight to a DIP.
  std::optional<Ipv4Address> process(Packet& packet, bool intra_dc = false);

  std::size_t size() const noexcept { return smuxes_.size(); }
  Smux& smux(std::size_t i) { return *smuxes_.at(i); }

 private:
  FlowHasher hasher_;
  bool fast_path_ = false;
  std::vector<std::unique_ptr<Smux>> smuxes_;
  std::unordered_map<Ipv4Address, std::vector<Ipv4Address>> vip_dips_;
};

}  // namespace duet
