// The Duet controller (Fig 9, §6).
//
// Three roles from the paper:
//   * Datacenter monitoring — topology, traffic (per-epoch demands), and DIP
//     health reported by host agents;
//   * Duet Engine — runs the VIP-switch assignment (§4) each epoch;
//   * Assignment Updater — translates assignment diffs into switch-agent
//     operations: program/clear ECMP+tunneling entries on HMuxes, update the
//     SMuxes' full VIP tables, and fire BGP announcements/withdrawals.
//
// This controller applies operations in converged steps (every RIB view
// updates atomically per step, with the SMux-transit ordering of §4.2
// between steps). The event-driven testbed simulator (sim/probe.h) models
// the *latencies* of the same operations for the Fig 12–14 experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "duet/assignment.h"
#include "duet/config.h"
#include "duet/fanout.h"
#include "duet/hmux.h"
#include "duet/migration.h"
#include "duet/smux.h"
#include "routing/bgp.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"
#include "topo/fattree.h"
#include "workload/demand.h"

namespace duet {

namespace audit {
struct JournalCursor;
struct SystemSnapshot;
}  // namespace audit

namespace persist {
struct ControllerAccess;
}  // namespace persist

class DuetController {
 public:
  DuetController(const FatTree& fabric, DuetConfig config, FlowHasher hasher,
                 std::uint64_t seed = 1);
  // Unbinds the audit registry binding made in the constructor (if still
  // ours) so later violation reports can't reach a dead registry.
  ~DuetController();

  // --- deployment -----------------------------------------------------------
  // Creates the SMux pool on servers under the given ToRs; every SMux
  // announces the covering aggregate so it backstops all VIPs (§3.3.1).
  void deploy_smuxes(const std::vector<SwitchId>& tors, Ipv4Prefix vip_aggregate);

  // --- VIP lifecycle (§5.2) ---------------------------------------------------
  // "A new VIP is first added to SMuxes, and then the migration algorithm
  // decides the right destination."
  VipId add_vip(Ipv4Address vip, std::vector<Ipv4Address> dips);
  void remove_vip(Ipv4Address vip);
  // DIP addition bounces the VIP through the SMuxes (resilient hashing can't
  // grow in place); DIP removal uses resilient hashing on the HMux.
  void add_dip(Ipv4Address vip, Ipv4Address dip);
  void remove_dip(Ipv4Address vip, Ipv4Address dip);
  // Host-agent health report; an unhealthy DIP is removed (§5.1).
  void report_dip_health(Ipv4Address vip, Ipv4Address dip, bool healthy);

  // Port-based LB (§5.2): a (vip, dst_port)-specific DIP pool, programmed as
  // an ACL rule on the VIP's HMux and mirrored on every SMux.
  void install_port_rule(Ipv4Address vip, std::uint16_t dst_port,
                         std::vector<Ipv4Address> dips);
  void remove_port_rule(Ipv4Address vip, std::uint16_t dst_port);

  // WCMP weights for heterogeneous backends (§5.2). Changing weights changes
  // the slot layout, so like DIP addition the VIP bounces through the
  // SMuxes (whose flow table pins existing connections) and returns to
  // hardware at the next epoch.
  void set_dip_weights(Ipv4Address vip, std::vector<std::uint32_t> weights);

  // Operator-directed single-VIP migration (duetctl migrate): the §4.2
  // two-phase move for one VIP — withdraw (traffic falls to the SMux
  // backstop), then announce from `target` (nullopt = stay on the SMux
  // pool). Returns false when the target rejects the VIP (tables full or
  // switch dead); the VIP then stays safely on the SMuxes.
  bool migrate_vip(Ipv4Address vip, std::optional<SwitchId> target);

  // Pins the VIP's SMux decision engine (nullopt clears back to the
  // DuetConfig default). Remembered in the VIP record so new SMux syncs and
  // controller snapshots carry it.
  void set_engine_override(Ipv4Address vip, std::optional<SmuxEngine> engine);
  std::optional<SmuxEngine> engine_override_of(Ipv4Address vip) const;

  // --- epoch processing --------------------------------------------------------
  struct EpochReport {
    Assignment assignment;
    MigrationPlan migration;
    double hmux_fraction = 0.0;
    std::size_t smuxes_needed = 0;
  };
  // Runs the (sticky, unless first) assignment over fresh demands and
  // executes the resulting migration. Demands' VipIds must come from
  // add_vip. `sticky=false` forces a from-scratch round (the paper's
  // Non-sticky baseline).
  EpochReport run_epoch(const std::vector<VipDemand>& demands, bool sticky = true);

  // --- failure handling (§5.1) ----------------------------------------------------
  // HMux died: withdraw its routes everywhere; VIPs fall back to SMuxes and
  // are remembered for re-assignment next epoch.
  void handle_switch_failure(SwitchId dead);
  // SMux died: drop it from the pool (ECMP redistributes).
  void handle_smux_failure(std::uint32_t smux_id);

  // --- queries -----------------------------------------------------------------
  enum class Owner : std::uint8_t { kNone, kSmux, kHmux };
  Owner owner_of(Ipv4Address vip) const;
  std::optional<SwitchId> hmux_home(Ipv4Address vip) const;
  // Configured VIPs / a VIP's pool, for renderers of controller state into a
  // serving path (duetd pushes these into its MuxServer after every op).
  std::vector<Ipv4Address> vip_addresses() const;
  std::vector<Ipv4Address> dips_of(Ipv4Address vip) const;
  std::vector<std::uint32_t> weights_of(Ipv4Address vip) const;

  // Data-path entry point for tests/examples: runs the packet through the
  // mux currently owning its VIP (converged view) and returns the DIP it was
  // encapsulated to, or nullopt when dropped/unknown.
  std::optional<Ipv4Address> load_balance(Packet& packet);

  // --- telemetry ----------------------------------------------------------------
  // Always-on observability (metric prefix `duet.controller.` plus per-mux
  // `duet.hmux.sw<N>.` / `duet.smux.<id>.` series; §4/§5 control-plane steps
  // land in the journal). The controller has no clock of its own — callers
  // with a notion of time advance it so journal timestamps are meaningful;
  // otherwise every event stamps 0 and keeps insertion order.
  telemetry::MetricRegistry& metrics() noexcept { return telemetry_.registry; }
  const telemetry::MetricRegistry& metrics() const noexcept { return telemetry_.registry; }
  telemetry::EventJournal& journal() noexcept { return telemetry_.journal; }
  const telemetry::EventJournal& journal() const noexcept { return telemetry_.journal; }
  void set_clock_us(double t_us) { clock_us_ = t_us; }
  double clock_us() const noexcept { return clock_us_; }
  // Journals one kTableOccupancy event per live HMux and refreshes the
  // aggregate `duet.dataplane.*` gauges. Explicit (not per-epoch) so the
  // journal stays small in long simulations.
  void snapshot_table_occupancy();

  const RoutingFabric& routing() const noexcept { return routing_; }
  Hmux* hmux_at(SwitchId s);
  std::size_t smux_count() const noexcept { return smuxes_.size(); }
  Smux& smux(std::size_t i) { return *smuxes_.at(i).mux; }
  std::size_t vip_count() const noexcept { return vips_.size(); }
  const Assignment& current_assignment() const noexcept { return current_; }
  const DuetConfig& config() const noexcept { return config_; }

 private:
  // Read-only state walk for the invariant auditor (audit/snapshot.h).
  friend struct audit::SystemSnapshot;
  // Snapshot capture/restore for crash recovery (persist/state_image.h).
  friend struct persist::ControllerAccess;

  struct VipRecord {
    VipId id = 0;
    Ipv4Address vip;
    std::vector<Ipv4Address> dips;
    std::optional<SwitchId> home;  // HMux switch, nullopt = SMux pool
    // Large-fanout VIPs (> tunnel capacity DIPs) are served through TIP
    // indirection (§5.2); the active plan is kept for teardown.
    std::optional<FanoutPlan> fanout;
    // WCMP weights (empty = equal) and port-specific pools (§5.2).
    std::vector<std::uint32_t> weights;
    std::unordered_map<std::uint16_t, std::vector<Ipv4Address>> port_rules;
    // Per-VIP SMux decision-engine pin (DESIGN.md §13); nullopt = config
    // default. Kept here (not only inside the Smuxes) so snapshots carry it.
    std::optional<SmuxEngine> engine_override;
  };
  struct SmuxInstance {
    std::uint32_t id = 0;
    SwitchId tor = kInvalidSwitch;
    std::unique_ptr<Smux> mux;
    bool alive = true;
  };

  VipRecord& record(Ipv4Address vip);
  const VipRecord* find_record(Ipv4Address vip) const;
  // Runs the invariant auditor over a fresh snapshot plus the journal events
  // appended since the last audit (folded into journal_cursor_; the count
  // lands in `duet.audit.journal_events_folded`) and raises every violation
  // through the audit/check.h policy. No-op when the process audit level is
  // off. `converged_placement` is false between the §4.2 withdraw and
  // announce phases.
  void audit_now(bool converged_placement, const char* where);
  Hmux& ensure_hmux(SwitchId s);
  void journal_event(telemetry::EventKind kind, Ipv4Address vip = {}, Ipv4Address dip = {},
                     std::uint32_t sw = telemetry::kNoSwitch, std::string detail = {});

  // Assignment-updater primitives (switch-agent + BGP ops).
  bool place_on_hmux(VipRecord& rec, SwitchId target);
  // Installs a large-fanout VIP: TIP partitions on helper switches, TIP
  // pointers on the primary. Returns false when no helper set fits.
  bool place_fanout_on_hmux(VipRecord& rec, SwitchId target);
  void withdraw_from_hmux(VipRecord& rec);
  void sync_smuxes(const VipRecord& rec);
  void purge_from_smuxes(Ipv4Address vip);

  const FatTree* fabric_;
  DuetConfig config_;
  FlowHasher hasher_;
  AssignmentOptions options_;
  VipAssigner assigner_;
  RoutingFabric routing_;
  Rng rng_;

  std::unordered_map<Ipv4Address, VipRecord> vips_;
  std::unordered_map<VipId, Ipv4Address> vip_by_id_;
  VipId next_vip_id_ = 0;
  std::unordered_map<SwitchId, std::unique_ptr<Hmux>> hmuxes_;
  std::uint32_t next_tip_ = (210u << 24) + 1;  // TIP pool: 210.0.0.0/8
  std::vector<SmuxInstance> smuxes_;
  Ipv4Prefix aggregate_;
  std::unordered_set<SwitchId> dead_switches_;
  bool have_assignment_ = false;
  Assignment current_;

  struct Telemetry {
    telemetry::MetricRegistry registry;
    telemetry::EventJournal journal;
  };
  Telemetry telemetry_;
  // audit_now's journal replay state, so an audit's cost does not grow
  // with the controller's uptime.
  std::unique_ptr<audit::JournalCursor> journal_cursor_;
  double clock_us_ = 0.0;
};

}  // namespace duet
