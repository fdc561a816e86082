#include "topo/fattree.h"

#include <string>

#include "util/logging.h"

namespace duet {

namespace {

// "<prefix><index>", built by appending: GCC 12 reports a false -Wrestrict
// on `"C" + std::to_string(k)` in optimized builds.
std::string switch_name(std::string prefix, std::size_t index) {
  prefix += std::to_string(index);
  return prefix;
}

}  // namespace

FatTree build_fattree(const FatTreeParams& params) {
  DUET_CHECK(params.containers > 0 && params.tors_per_container > 0 &&
             params.aggs_per_container > 0 && params.cores > 0)
      << "degenerate FatTree parameters";

  FatTree ft;
  ft.params = params;
  Topology& topo = ft.topo;

  // Core layer.
  for (std::size_t k = 0; k < params.cores; ++k) {
    ft.cores.push_back(topo.add_switch(SwitchRole::kCore, kNoContainer, switch_name("C", k)));
  }

  // Containers: Aggs then ToRs; ToR–Agg full bipartite inside a container.
  for (std::size_t c = 0; c < params.containers; ++c) {
    std::vector<SwitchId> container_aggs;
    for (std::size_t a = 0; a < params.aggs_per_container; ++a) {
      const auto id = topo.add_switch(SwitchRole::kAgg, static_cast<ContainerId>(c),
                                      switch_name(switch_name("A", c) + '.', a));
      container_aggs.push_back(id);
      ft.aggs.push_back(id);
    }
    for (std::size_t t = 0; t < params.tors_per_container; ++t) {
      const auto id = topo.add_switch(SwitchRole::kTor, static_cast<ContainerId>(c),
                                      switch_name(switch_name("T", c) + '.', t));
      ft.tors.push_back(id);
      for (const SwitchId agg : container_aggs) {
        topo.add_link(id, agg, params.tor_agg_gbps);
      }
    }
    // Agg–Core uplinks.
    for (std::size_t a = 0; a < container_aggs.size(); ++a) {
      if (params.full_core_mesh) {
        for (const SwitchId core : ft.cores) {
          topo.add_link(container_aggs[a], core, params.agg_core_gbps);
        }
      } else {
        // Stripe: agg a connects to cores a, a+aggs, a+2*aggs, ...
        for (std::size_t k = a; k < params.cores; k += params.aggs_per_container) {
          topo.add_link(container_aggs[a], ft.cores[k], params.agg_core_gbps);
        }
      }
    }
  }

  // Servers: 10.c.t.h style blocks, one /24-ish block per ToR. With more
  // than 256 ToRs per container or servers per ToR this would wrap, so
  // compose the address arithmetically instead of via octets.
  ft.servers_by_tor.resize(ft.tors.size());
  std::uint32_t next_host = (10u << 24) + 1;  // 10.0.0.1 onwards
  for (std::size_t t = 0; t < ft.tors.size(); ++t) {
    ft.servers_by_tor[t].reserve(params.servers_per_tor);
    for (std::size_t h = 0; h < params.servers_per_tor; ++h) {
      const Ipv4Address ip{next_host++};
      topo.attach_host(ip, ft.tors[t]);
      ft.servers_by_tor[t].push_back(ip);
      ft.servers.push_back(ip);
    }
  }

  DUET_LOG_INFO << "built FatTree: " << topo.switch_count() << " switches, " << topo.link_count()
                << " links, " << ft.servers.size() << " servers";
  return ft;
}

}  // namespace duet
