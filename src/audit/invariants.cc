#include "audit/invariants.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace duet::audit {

namespace {

// One snapshot audit's collection state: violations append through add(),
// which formats "<context>: <what>" uniformly.
class Collector {
 public:
  explicit Collector(AuditReport& report) : report_(&report) {}

  void begin_invariant() { ++report_->checks_run; }

  template <typename... Parts>
  void add(std::string_view invariant, Severity severity, Parts&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    report_->violations.push_back(
        Violation{std::string(invariant), severity, os.str()});
  }

 private:
  AuditReport* report_;
};

std::string addr(Ipv4Address a) { return a.to_string(); }

// --- 1. table-capacity (§3.1) ------------------------------------------------
void check_table_capacity(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  for (const auto& sw : snap.switches) {
    if (sw.host_used > sw.host_capacity) {
      c.add("table-capacity", Severity::kError, "switch ", sw.id, " host table over capacity: ",
            sw.host_used, " > ", sw.host_capacity);
    }
    if (sw.ecmp_used > sw.ecmp_capacity) {
      c.add("table-capacity", Severity::kError, "switch ", sw.id, " ECMP members over capacity: ",
            sw.ecmp_used, " > ", sw.ecmp_capacity);
    }
    if (sw.tunnel_used > sw.tunnel_capacity) {
      c.add("table-capacity", Severity::kError, "switch ", sw.id,
            " tunnel table over capacity: ", sw.tunnel_used, " > ", sw.tunnel_capacity);
    }
  }
}

// --- 2. occupancy-accounting (§4) --------------------------------------------
// Reported occupancy must equal the sum of per-VIP costs: |d_v| tunneling
// entries per live slot, Σweights ECMP members per group, one host entry per
// VIP/TIP install — the L_{s,v} model the assignment algorithm packs against.
void check_occupancy_accounting(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  for (const auto& sw : snap.switches) {
    std::size_t group_members = 0;
    for (const auto& [gid, members] : sw.ecmp_groups) group_members += members.size();
    if (group_members != sw.ecmp_used) {
      c.add("occupancy-accounting", Severity::kError, "switch ", sw.id,
            " ECMP occupancy ", sw.ecmp_used, " != sum of group member counts ", group_members);
    }
    if (sw.tunnel_entries.size() != sw.tunnel_used) {
      c.add("occupancy-accounting", Severity::kError, "switch ", sw.id, " tunnel occupancy ",
            sw.tunnel_used, " != entry count ", sw.tunnel_entries.size());
    }
    std::size_t host_installs = 0;
    std::size_t live_tunnel_refs = 0;
    for (const auto& inst : sw.installs) {
      if (!inst.port.has_value()) ++host_installs;
      live_tunnel_refs += inst.tunnels.size();
    }
    if (host_installs != sw.host_used) {
      c.add("occupancy-accounting", Severity::kError, "switch ", sw.id, " host occupancy ",
            sw.host_used, " != VIP/TIP install count ", host_installs);
    }
    if (live_tunnel_refs != sw.tunnel_used) {
      c.add("occupancy-accounting", Severity::kError, "switch ", sw.id, " tunnel occupancy ",
            sw.tunnel_used, " != live member slots ", live_tunnel_refs);
    }
  }
}

// --- 3. ecmp-tunnel-refs (§3.1) ----------------------------------------------
// Every install references an existing ECMP group; every live member slot's
// tunnel entry exists and encapsulates toward the slot's recorded target.
void check_ecmp_tunnel_refs(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  for (const auto& sw : snap.switches) {
    for (const auto& inst : sw.installs) {
      if (!sw.ecmp_groups.contains(inst.group)) {
        c.add("ecmp-tunnel-refs", Severity::kError, "switch ", sw.id, " install ",
              addr(inst.address), " references missing ECMP group ", inst.group);
      }
      for (std::size_t i = 0; i < inst.tunnels.size(); ++i) {
        const auto it = sw.tunnel_entries.find(inst.tunnels[i]);
        if (it == sw.tunnel_entries.end()) {
          c.add("ecmp-tunnel-refs", Severity::kError, "switch ", sw.id, " install ",
                addr(inst.address), " live slot references missing tunnel entry ",
                inst.tunnels[i]);
        } else if (i < inst.targets.size() && it->second != inst.targets[i]) {
          c.add("ecmp-tunnel-refs", Severity::kError, "switch ", sw.id, " install ",
                addr(inst.address), " tunnel ", inst.tunnels[i], " encapsulates to ",
                addr(it->second), " but the member targets ", addr(inst.targets[i]));
        }
      }
    }
  }
}

// --- 4. no-leaked-tunnels (§3.1) ---------------------------------------------
// Tunnel entries are owned by exactly one live member slot; a refcount of 0
// is a leak (entry survived its VIP) and >1 is double-use.
void check_no_leaked_tunnels(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  for (const auto& sw : snap.switches) {
    std::unordered_map<TunnelIndex, std::size_t> refs;
    for (const auto& inst : sw.installs) {
      for (const TunnelIndex t : inst.tunnels) ++refs[t];
    }
    for (const auto& [index, dst] : sw.tunnel_entries) {
      const auto it = refs.find(index);
      if (it == refs.end()) {
        c.add("no-leaked-tunnels", Severity::kError, "switch ", sw.id, " tunnel entry ", index,
              " -> ", addr(dst), " is referenced by no live member slot (leaked)");
      } else if (it->second > 1) {
        c.add("no-leaked-tunnels", Severity::kError, "switch ", sw.id, " tunnel entry ", index,
              " is referenced by ", it->second, " member slots");
      }
    }
  }
}

// --- 5. single-announcer (§3.3.1, §4.2) --------------------------------------
void check_single_announcer(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  for (const auto& vip : snap.vips) {
    if (vip.home.has_value()) {
      if (vip.announcers.size() != 1) {
        c.add("single-announcer", Severity::kError, "VIP ", addr(vip.vip), " on HMux ",
              *vip.home, " has ", vip.announcers.size(), " /32 announcers (want exactly 1)");
      } else if (vip.announcers.front() != *vip.home) {
        c.add("single-announcer", Severity::kError, "VIP ", addr(vip.vip), " homed on HMux ",
              *vip.home, " but announced by switch ", vip.announcers.front());
      }
    } else if (!vip.announcers.empty()) {
      c.add("single-announcer", Severity::kError, "VIP ", addr(vip.vip),
            " is on the SMux pool but still has ", vip.announcers.size(), " /32 announcer(s)");
    }
  }
  if (!snap.views_consistent) {
    c.add("single-announcer", Severity::kError,
          "RIB views disagree (converged controller must update all views atomically)");
  }
}

// --- 6. announcer-holds-vip (§3.3.1) -----------------------------------------
// The switch announcing a VIP's /32 must actually hold its entries, or the
// /32 attracts traffic into a blackhole.
void check_announcer_holds_vip(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  for (const auto& vip : snap.vips) {
    if (!vip.home.has_value()) continue;
    const SwitchSnapshot* sw = snap.switch_by_id(*vip.home);
    const bool holds =
        sw != nullptr &&
        std::any_of(sw->installs.begin(), sw->installs.end(),
                    [&](const SwitchDataPlane::InstallInfo& i) {
                      return i.address == vip.vip && !i.port.has_value();
                    });
    if (!holds) {
      c.add("announcer-holds-vip", Severity::kError, "VIP ", addr(vip.vip),
            " announced from switch ", *vip.home, " which holds no entries for it");
    }
  }
}

// --- 7. no-orphan-routes (§5.1) ----------------------------------------------
// Every /32 in the RIB must be justified by a VIP home or an active fanout
// TIP; anything else is a stale route surviving a withdraw or failure.
void check_no_orphan_routes(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  std::unordered_map<Ipv4Address, SwitchId> expected;
  for (const auto& vip : snap.vips) {
    if (vip.home.has_value()) expected.emplace(vip.vip, *vip.home);
    for (const auto& part : vip.fanout) expected.emplace(part.tip, part.host_switch);
  }
  for (const auto& [address, origin] : snap.host_routes) {
    const auto it = expected.find(address);
    if (it == expected.end()) {
      c.add("no-orphan-routes", Severity::kError, "/32 route for ", addr(address),
            " (origin switch ", origin, ") matches no VIP home or fanout TIP");
    } else if (it->second != origin) {
      c.add("no-orphan-routes", Severity::kError, "/32 route for ", addr(address),
            " originated by switch ", origin, " but its owner is switch ", it->second);
    }
  }
}

// --- 8. smux-backstop (§3.3.1) -----------------------------------------------
// As long as any SMux lives, LPM must be able to fall back: an aggregate
// route covering every VIP must exist, so a withdrawn /32 fails over instead
// of blackholing.
void check_smux_backstop(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  if (snap.live_smux_count == 0) {
    if (!snap.vips.empty()) {
      c.add("smux-backstop", Severity::kWarning, "no live SMux: ", snap.vips.size(),
            " VIP(s) have no LPM backstop");
    }
    return;
  }
  for (const auto& vip : snap.vips) {
    if (!vip.aggregate_covers) {
      c.add("smux-backstop", Severity::kError, "VIP ", addr(vip.vip),
            " is not covered by any announced aggregate (backstop broken)");
    }
  }
}

// --- 9. smux-holds-all-vips (§3.3.1) -----------------------------------------
// "Each SMux announces all the VIPs" — every live SMux carries the complete
// VIP table, or the backstop serves only part of the traffic it attracts.
void check_smux_holds_all_vips(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  for (const auto& vip : snap.vips) {
    if (vip.live_smuxes_holding != snap.live_smux_count) {
      c.add("smux-holds-all-vips", Severity::kError, "VIP ", addr(vip.vip), " programmed on ",
            vip.live_smuxes_holding, " of ", snap.live_smux_count, " live SMuxes");
    }
  }
}

// --- 10. host-table-global-limit (§3.3.2) ------------------------------------
// Every switch carries a /32 route per HMux VIP, so the fleet-wide count of
// distinct /32s is bounded by one host table.
void check_host_table_global_limit(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  std::unordered_set<Ipv4Address> distinct;
  for (const auto& [address, origin] : snap.host_routes) distinct.insert(address);
  if (snap.host_table_capacity > 0 && distinct.size() > snap.host_table_capacity) {
    c.add("host-table-global-limit", Severity::kError, distinct.size(),
          " distinct /32 routes exceed the host table capacity ", snap.host_table_capacity);
  }
}

// --- 11. dead-switch-quiesced (§5.1) -----------------------------------------
// A failed switch must be fully withdrawn: no routes from it, no data-plane
// state on it, no VIP homed on it.
void check_dead_switch_quiesced(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  const std::unordered_set<SwitchId> dead(snap.dead_switches.begin(), snap.dead_switches.end());
  if (dead.empty()) return;
  for (const auto& [address, origin] : snap.host_routes) {
    if (dead.contains(origin)) {
      c.add("dead-switch-quiesced", Severity::kError, "dead switch ", origin,
            " still originates the /32 for ", addr(address));
    }
  }
  for (const auto& sw : snap.switches) {
    if (dead.contains(sw.id) && (sw.host_used > 0 || sw.tunnel_used > 0)) {
      c.add("dead-switch-quiesced", Severity::kError, "dead switch ", sw.id,
            " still holds data-plane state (", sw.host_used, " host / ", sw.tunnel_used,
            " tunnel entries)");
    }
  }
  for (const auto& vip : snap.vips) {
    if (vip.home.has_value() && dead.contains(*vip.home)) {
      c.add("dead-switch-quiesced", Severity::kError, "VIP ", addr(vip.vip),
            " still homed on dead switch ", *vip.home);
    }
  }
}

// --- 12. fanout-integrity (§5.2) ---------------------------------------------
// A large-fanout VIP's TIP partitions must tile its DIP set; the primary's
// targets must be exactly the TIPs; each partition host must hold its TIP
// decap-first and announce its /32.
void check_fanout_integrity(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  std::unordered_map<Ipv4Address, std::vector<SwitchId>> route_origins;
  for (const auto& [address, origin] : snap.host_routes) route_origins[address].push_back(origin);

  for (const auto& vip : snap.vips) {
    if (vip.fanout.empty()) continue;
    std::size_t covered = 0;
    std::unordered_set<Ipv4Address> tips;
    for (const auto& part : vip.fanout) {
      covered += part.dip_count;
      tips.insert(part.tip);
      const SwitchSnapshot* host = snap.switch_by_id(part.host_switch);
      const auto* install =
          host == nullptr
              ? nullptr
              : [&]() -> const SwitchDataPlane::InstallInfo* {
                  for (const auto& i : host->installs) {
                    if (i.address == part.tip && !i.port.has_value()) return &i;
                  }
                  return nullptr;
                }();
      if (install == nullptr) {
        c.add("fanout-integrity", Severity::kError, "VIP ", addr(vip.vip), " TIP ",
              addr(part.tip), " is not installed on its host switch ", part.host_switch);
      } else if (!install->decap_first) {
        c.add("fanout-integrity", Severity::kError, "VIP ", addr(vip.vip), " TIP ",
              addr(part.tip), " on switch ", part.host_switch,
              " lacks decap-first (double encap would drop)");
      }
      const auto rit = route_origins.find(part.tip);
      if (rit == route_origins.end() ||
          std::find(rit->second.begin(), rit->second.end(), part.host_switch) ==
              rit->second.end()) {
        c.add("fanout-integrity", Severity::kError, "VIP ", addr(vip.vip), " TIP ",
              addr(part.tip), " has no /32 route from its host switch ", part.host_switch);
      }
    }
    if (covered != vip.dip_count) {
      c.add("fanout-integrity", Severity::kError, "VIP ", addr(vip.vip), " partitions cover ",
            covered, " DIPs but the VIP has ", vip.dip_count);
    }
    if (vip.home.has_value()) {
      const SwitchSnapshot* primary = snap.switch_by_id(*vip.home);
      if (primary != nullptr) {
        for (const auto& inst : primary->installs) {
          if (inst.address != vip.vip || inst.port.has_value()) continue;
          for (const auto& target : inst.targets) {
            if (!tips.contains(target)) {
              c.add("fanout-integrity", Severity::kError, "VIP ", addr(vip.vip),
                    " primary targets ", addr(target), " which is not one of its TIPs");
            }
          }
        }
      }
    }
  }
}

// --- 13. single-encap, static form (§5.2) ------------------------------------
// An encap chain must terminate after at most one TIP hop: any tunnel entry
// whose destination is itself an installed LB address must point at a
// decap-first (TIP) install, or the second hop double-encapsulates and the
// hardware drops.
void check_single_encap_static(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  // Installed addresses fleet-wide -> is every install decap-first?
  std::unordered_map<Ipv4Address, bool> installed_decap;
  for (const auto& sw : snap.switches) {
    for (const auto& inst : sw.installs) {
      if (inst.port.has_value()) continue;
      const auto [it, inserted] = installed_decap.emplace(inst.address, inst.decap_first);
      if (!inserted) it->second = it->second && inst.decap_first;
    }
  }
  for (const auto& sw : snap.switches) {
    for (const auto& [index, dst] : sw.tunnel_entries) {
      const auto it = installed_decap.find(dst);
      if (it != installed_decap.end() && !it->second) {
        c.add("single-encap", Severity::kError, "switch ", sw.id, " tunnel entry ", index,
              " encapsulates toward ", addr(dst),
              " which is installed without decap-first: the second hop would double-encap");
      }
    }
  }
}

// --- 14. placement-consistency (§6) ------------------------------------------
// The controller's remembered assignment and the per-VIP records must agree
// once an epoch has converged.
void check_placement_consistency(const SystemSnapshot& snap, Collector& c) {
  c.begin_invariant();
  for (const auto& vip : snap.vips) {
    if (vip.placement_switch.has_value()) {
      if (!vip.home.has_value() || *vip.home != *vip.placement_switch) {
        c.add("placement-consistency", Severity::kError, "VIP ", addr(vip.vip),
              " placed on switch ", *vip.placement_switch, " by the assignment but homed on ",
              vip.home.has_value() ? static_cast<long long>(*vip.home) : -1LL);
      }
      if (vip.on_smux_list) {
        c.add("placement-consistency", Severity::kError, "VIP ", addr(vip.vip),
              " appears in both the HMux placement and the SMux list");
      }
    } else if (vip.home.has_value()) {
      c.add("placement-consistency", Severity::kError, "VIP ", addr(vip.vip), " homed on switch ",
            *vip.home, " but absent from the assignment placement");
    }
  }
}

}  // namespace

std::size_t AuditReport::count(std::string_view invariant) const {
  std::size_t n = 0;
  for (const auto& v : violations) {
    if (v.invariant == invariant) ++n;
  }
  return n;
}

void AuditReport::raise() const {
  for (const auto& v : violations) report_violation(v.invariant, v.severity, v.message);
}

void AuditReport::merge(AuditReport other) {
  checks_run += other.checks_run;
  violations.insert(violations.end(), std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

std::string AuditReport::summary() const {
  std::ostringstream os;
  os << violations.size() << " violation(s) across " << checks_run << " invariant checks";
  return os.str();
}

AuditReport InvariantAuditor::audit(const SystemSnapshot& snapshot) const {
  AuditReport report;
  Collector c(report);
  check_table_capacity(snapshot, c);
  check_occupancy_accounting(snapshot, c);
  check_ecmp_tunnel_refs(snapshot, c);
  check_no_leaked_tunnels(snapshot, c);
  check_single_announcer(snapshot, c);
  check_announcer_holds_vip(snapshot, c);
  check_no_orphan_routes(snapshot, c);
  check_smux_backstop(snapshot, c);
  check_smux_holds_all_vips(snapshot, c);
  check_host_table_global_limit(snapshot, c);
  check_dead_switch_quiesced(snapshot, c);
  check_fanout_integrity(snapshot, c);
  check_single_encap_static(snapshot, c);
  if (options_.expect_converged_placement) check_placement_consistency(snapshot, c);
  return report;
}

// --- 15. migration-through-smux (§4.2, temporal) -----------------------------
AuditReport InvariantAuditor::audit_journal(const telemetry::EventJournal& journal) const {
  JournalCursor cursor;
  return audit_journal(journal, cursor);
}

AuditReport InvariantAuditor::audit_journal(const telemetry::EventJournal& journal,
                                            JournalCursor& cursor) const {
  AuditReport report;
  Collector c(report);
  c.begin_invariant();  // migration-through-smux
  c.begin_invariant();  // journal-withdraw-matches

  const auto& events = journal.events();
  bool refold = journal.clears() != cursor.clears || events.size() < cursor.folded;
  for (std::size_t i = cursor.folded; !refold && i < events.size(); ++i) {
    refold = events[i].t_us < cursor.watermark_us;
  }
  if (refold) {
    const std::uint64_t lifetime = cursor.events_folded;
    cursor = JournalCursor{};
    cursor.clears = journal.clears();
    cursor.events_folded = lifetime;
  }

  // Fold the /32 announce/withdraw stream in stable time order. The §4.2
  // phase rule (withdraw converges before the new announce) means a VIP's
  // announcer set never holds two switches at once; journal ties keep
  // insertion order, so a same-instant withdraw+announce pair is legal
  // exactly when the withdraw was journaled first.
  std::vector<std::size_t> order(events.size() - cursor.folded);
  std::iota(order.begin(), order.end(), cursor.folded);
  std::stable_sort(order.begin(), order.end(), [&events](std::size_t a, std::size_t b) {
    return events[a].t_us < events[b].t_us;
  });
  for (const std::size_t i : order) {
    const telemetry::Event& e = events[i];
    cursor.watermark_us = std::max(cursor.watermark_us, e.t_us);
    if (e.vip == Ipv4Address{}) continue;  // aggregate (SMux) routes
    if (e.kind == telemetry::EventKind::kBgpAnnounce) {
      auto& set = cursor.announcers[e.vip];
      set.insert(e.sw);
      if (set.size() > 1) {
        c.add("migration-through-smux", Severity::kError, "VIP ", addr(e.vip), " announced by ",
              set.size(), " switches at t=", e.t_us,
              "us: an HMux-to-HMux move skipped the SMux transit");
      }
    } else if (e.kind == telemetry::EventKind::kBgpWithdraw) {
      auto& set = cursor.announcers[e.vip];
      if (set.erase(e.sw) == 0) {
        c.add("journal-withdraw-matches", Severity::kWarning, "VIP ", addr(e.vip),
              " withdrawn from switch ", e.sw, " at t=", e.t_us,
              "us without a matching announce");
      }
    }
  }
  cursor.folded = events.size();
  cursor.events_folded += order.size();
  return report;
}

const std::vector<InvariantInfo>& InvariantAuditor::invariants() {
  static const std::vector<InvariantInfo> kInvariants = {
      {"table-capacity", "§3.1",
       "host/ECMP/tunnel occupancy never exceeds the table's capacity on any switch"},
      {"occupancy-accounting", "§4",
       "occupancy equals the sum of per-VIP costs: one host entry per install, Σweights ECMP "
       "members per group, one tunnel entry per live member slot"},
      {"ecmp-tunnel-refs", "§3.1",
       "every install's ECMP group exists and every live member's tunnel entry exists and "
       "matches its target"},
      {"no-leaked-tunnels", "§3.1",
       "every tunnel entry is owned by exactly one live member slot (no leaks, no double use)"},
      {"single-announcer", "§3.3.1/§4.2",
       "an HMux VIP has exactly one /32 announcer (its home); a SMux VIP has none; all RIB "
       "views agree"},
      {"announcer-holds-vip", "§3.3.1",
       "the switch announcing a VIP's /32 actually holds the VIP's table entries"},
      {"no-orphan-routes", "§5.1",
       "every /32 route is justified by a VIP home or an active fanout TIP"},
      {"smux-backstop", "§3.3.1",
       "while any SMux lives, an announced aggregate covers every VIP (LPM fallback)"},
      {"smux-holds-all-vips", "§3.3.1", "every live SMux is programmed with every VIP"},
      {"host-table-global-limit", "§3.3.2",
       "distinct /32 routes fleet-wide fit one host table (every switch carries them all)"},
      {"dead-switch-quiesced", "§5.1",
       "a failed switch originates no routes, holds no entries, and homes no VIP"},
      {"fanout-integrity", "§5.2",
       "TIP partitions tile the DIP set; the primary targets exactly the TIPs; each TIP is "
       "installed decap-first and announced by its host"},
      {"single-encap", "§5.2",
       "no packet path double-encapsulates: tunnel targets that are themselves installed are "
       "decap-first (static), and the pipeline never emits encap depth > 1 (runtime)"},
      {"placement-consistency", "§6",
       "the remembered assignment and per-VIP records agree once an epoch converged"},
      {"migration-through-smux", "§4.2",
       "replayed from the journal: a VIP never has two /32 announcers at any instant, i.e. "
       "every HMux-to-HMux move transited the SMuxes"},
      {"journal-withdraw-matches", "§4.2",
       "every journaled withdraw matches a prior announce from the same switch"},
  };
  return kInvariants;
}

}  // namespace duet::audit
