#include "duet/controller.h"

#include <algorithm>

#include "audit/invariants.h"
#include "audit/snapshot.h"
#include "util/logging.h"

namespace duet {

DuetController::DuetController(const FatTree& fabric, DuetConfig config, FlowHasher hasher,
                               std::uint64_t seed)
    : fabric_(&fabric),
      config_(config),
      hasher_(hasher),
      options_(AssignmentOptions::from_config(config)),
      assigner_(fabric, [&] {
        auto o = AssignmentOptions::from_config(config);
        o.seed = seed;
        return o;
      }()),
      routing_(fabric.topo.switch_count()),
      rng_(seed),
      journal_cursor_(std::make_unique<audit::JournalCursor>()) {
  options_.seed = seed;
  // Audit violations count into this controller's registry (last controller
  // constructed wins the process-wide binding; sims build one).
  audit::bind_registry(&telemetry_.registry);
}

DuetController::~DuetController() { audit::unbind_registry(&telemetry_.registry); }

void DuetController::audit_now(bool converged_placement, const char* where) {
  if (!audit::audit_enabled()) return;
  audit::InvariantAuditor auditor(audit::AuditOptions{converged_placement});
  audit::AuditReport report = auditor.audit(audit::SystemSnapshot::capture(*this));
  const std::uint64_t folded_before = journal_cursor_->events_folded;
  report.merge(auditor.audit_journal(telemetry_.journal, *journal_cursor_));
  telemetry_.registry.counter("duet.audit.journal_events_folded")
      .inc(journal_cursor_->events_folded - folded_before);
  if (!report.clean()) {
    DUET_LOG_ERROR << "invariant audit (" << where << "): " << report.summary();
  }
  report.raise();
}

void DuetController::deploy_smuxes(const std::vector<SwitchId>& tors, Ipv4Prefix vip_aggregate) {
  DUET_CHECK(smuxes_.empty()) << "SMux pool already deployed";
  DUET_CHECK(!tors.empty()) << "need at least one SMux (the backstop must exist)";
  aggregate_ = vip_aggregate;
  for (const SwitchId tor : tors) {
    DUET_CHECK(fabric_->topo.switch_info(tor).role == SwitchRole::kTor)
        << "SMuxes run on servers under ToRs";
    SmuxInstance inst;
    inst.id = static_cast<std::uint32_t>(smuxes_.size());
    inst.tor = tor;
    inst.mux = std::make_unique<Smux>(inst.id, hasher_, config_);
    inst.mux->bind_telemetry(telemetry_.registry,
                             "duet.smux." + std::to_string(inst.id) + ".");
    // BGP speaker alongside the SMux announces the aggregate (§6).
    routing_.announce_everywhere(aggregate_, tor);
    journal_event(telemetry::EventKind::kBgpAnnounce, {}, {}, tor,
                  "smux aggregate " + aggregate_.to_string());
    smuxes_.push_back(std::move(inst));
  }
}

void DuetController::journal_event(telemetry::EventKind kind, Ipv4Address vip, Ipv4Address dip,
                                   std::uint32_t sw, std::string detail) {
  telemetry_.journal.record(clock_us_, kind, vip, dip, sw, std::move(detail));
}

DuetController::VipRecord& DuetController::record(Ipv4Address vip) {
  const auto it = vips_.find(vip);
  DUET_CHECK(it != vips_.end()) << "unknown VIP " << vip.to_string();
  return it->second;
}

const DuetController::VipRecord* DuetController::find_record(Ipv4Address vip) const {
  const auto it = vips_.find(vip);
  return it == vips_.end() ? nullptr : &it->second;
}

Hmux& DuetController::ensure_hmux(SwitchId s) {
  auto it = hmuxes_.find(s);
  if (it == hmuxes_.end()) {
    it = hmuxes_.emplace(s, std::make_unique<Hmux>(s, hasher_, config_)).first;
    it->second->dataplane().bind_telemetry(telemetry_.registry,
                                           "duet.hmux.sw" + std::to_string(s) + ".");
  }
  return *it->second;
}

void DuetController::sync_smuxes(const VipRecord& rec) {
  for (auto& inst : smuxes_) {
    if (!inst.alive) continue;
    inst.mux->set_vip(rec.vip, rec.dips, rec.weights);
    for (const auto& [port, dips] : rec.port_rules) {
      inst.mux->set_port_rule(rec.vip, port, dips);
    }
    if (rec.engine_override.has_value()) {
      inst.mux->set_engine_override(rec.vip, *rec.engine_override);
    }
  }
  // Under the stateless engine a pool sync is a version build pushed to
  // every live SMux (the off-path rebuild of DESIGN.md §13) — journal it so
  // the VIP's update history shows when new colorings went live.
  if (config_.smux_engine == SmuxEngine::kStateless && !smuxes_.empty()) {
    journal_event(telemetry::EventKind::kStatelessVersionBuild, rec.vip, {},
                  telemetry::kNoSwitch,
                  std::to_string(rec.dips.size()) + " dips");
  }
}

void DuetController::purge_from_smuxes(Ipv4Address vip) {
  for (auto& inst : smuxes_) {
    if (inst.alive) inst.mux->remove_vip(vip);
  }
}

VipId DuetController::add_vip(Ipv4Address vip, std::vector<Ipv4Address> dips) {
  DUET_CHECK(!vips_.contains(vip)) << "VIP already exists: " << vip.to_string();
  DUET_CHECK(!dips.empty()) << "VIP with no DIPs";
  DUET_CHECK(aggregate_.contains(vip))
      << "VIP " << vip.to_string() << " outside the SMux aggregate " << aggregate_.to_string();
  VipRecord rec;
  rec.id = next_vip_id_++;
  rec.vip = vip;
  rec.dips = std::move(dips);
  vip_by_id_.emplace(rec.id, vip);
  const VipId id = rec.id;
  sync_smuxes(rec);  // §5.2: new VIPs start on the SMuxes
  vips_.emplace(vip, std::move(rec));
  journal_event(telemetry::EventKind::kVipAdded, vip, {}, telemetry::kNoSwitch,
                "on smux backstop");
  return id;
}

void DuetController::remove_vip(Ipv4Address vip) {
  auto& rec = record(vip);
  withdraw_from_hmux(rec);
  purge_from_smuxes(vip);
  vip_by_id_.erase(rec.id);
  vips_.erase(vip);
  journal_event(telemetry::EventKind::kVipRemoved, vip);
}

bool DuetController::place_on_hmux(VipRecord& rec, SwitchId target) {
  if (dead_switches_.contains(target)) return false;
  Hmux& hmux = ensure_hmux(target);
  if (rec.home == target) return true;
  withdraw_from_hmux(rec);
  if (rec.dips.size() > config_.tunnel_table_capacity) {
    return place_fanout_on_hmux(rec, target);
  }
  if (!hmux.dataplane().install_vip(rec.vip, rec.dips, rec.weights)) {
    DUET_LOG_WARN << "HMux " << target << " rejected VIP " << rec.vip.to_string()
                  << " (tables full); staying on SMux";
    return false;
  }
  for (const auto& [port, dips] : rec.port_rules) {
    if (!hmux.dataplane().install_port_rule(rec.vip, port, dips)) {
      DUET_LOG_WARN << "ACL table full for port rule " << rec.vip.to_string() << ":" << port;
    }
  }
  routing_.announce_everywhere(Ipv4Prefix::host_route(rec.vip), target);
  journal_event(telemetry::EventKind::kBgpAnnounce, rec.vip, {}, target);
  journal_event(telemetry::EventKind::kVipPlaced, rec.vip, {}, target);
  rec.home = target;
  return true;
}

bool DuetController::place_fanout_on_hmux(VipRecord& rec, SwitchId target) {
  // §5.2 large fanout: partition the DIPs, host each partition's TIP on a
  // helper switch with room, and point the primary at the TIPs.
  const std::size_t cap = config_.tunnel_table_capacity;
  const std::size_t parts = (rec.dips.size() + cap - 1) / cap;

  // Helpers: the emptiest alive switches other than the primary. Aggs and
  // Cores first — their tables are the least contended (§9).
  std::vector<SwitchId> pool;
  pool.insert(pool.end(), fabric_->aggs.begin(), fabric_->aggs.end());
  pool.insert(pool.end(), fabric_->cores.begin(), fabric_->cores.end());
  pool.insert(pool.end(), fabric_->tors.begin(), fabric_->tors.end());
  std::vector<SwitchId> helpers;
  for (const SwitchId s : pool) {
    if (helpers.size() == parts) break;
    if (s == target || dead_switches_.contains(s)) continue;
    if (ensure_hmux(s).free_dip_slots() >= std::min(cap, rec.dips.size())) helpers.push_back(s);
  }
  if (helpers.size() < parts) {
    DUET_LOG_WARN << "no helper switches with room for " << parts << " TIP partitions of VIP "
                  << rec.vip.to_string();
    return false;
  }

  FanoutPlan plan =
      plan_fanout(rec.vip, rec.dips, Ipv4Address{next_tip_}, helpers, cap);
  next_tip_ += static_cast<std::uint32_t>(plan.partitions.size());

  std::unordered_map<SwitchId, SwitchDataPlane*> dps;
  for (const auto& part : plan.partitions) {
    dps[part.host_switch] = &ensure_hmux(part.host_switch).dataplane();
  }
  if (!install_fanout(plan, ensure_hmux(target).dataplane(), dps)) {
    DUET_LOG_WARN << "fanout install failed for VIP " << rec.vip.to_string();
    return false;
  }
  // TIPs are routable addresses assigned to their host switches (§5.2).
  for (const auto& part : plan.partitions) {
    routing_.announce_everywhere(Ipv4Prefix::host_route(part.tip), part.host_switch);
  }
  routing_.announce_everywhere(Ipv4Prefix::host_route(rec.vip), target);
  journal_event(telemetry::EventKind::kBgpAnnounce, rec.vip, {}, target,
                "fanout, " + std::to_string(plan.partitions.size()) + " TIP partitions");
  journal_event(telemetry::EventKind::kVipPlaced, rec.vip, {}, target);
  rec.fanout = std::move(plan);
  rec.home = target;
  return true;
}

void DuetController::withdraw_from_hmux(VipRecord& rec) {
  if (!rec.home) return;
  const SwitchId old = *rec.home;
  routing_.withdraw_everywhere(Ipv4Prefix::host_route(rec.vip), old);
  journal_event(telemetry::EventKind::kBgpWithdraw, rec.vip, {}, old);
  const auto it = hmuxes_.find(old);
  if (it != hmuxes_.end()) {
    it->second->dataplane().remove_vip(rec.vip);
    for (const auto& [port, dips] : rec.port_rules) {
      (void)dips;
      it->second->dataplane().remove_port_rule(rec.vip, port);
    }
  }
  if (rec.fanout.has_value()) {
    for (const auto& part : rec.fanout->partitions) {
      routing_.withdraw_everywhere(Ipv4Prefix::host_route(part.tip), part.host_switch);
      const auto hit = hmuxes_.find(part.host_switch);
      if (hit != hmuxes_.end()) hit->second->dataplane().remove_vip(part.tip);
    }
    rec.fanout.reset();
  }
  rec.home.reset();
}

void DuetController::add_dip(Ipv4Address vip, Ipv4Address dip) {
  auto& rec = record(vip);
  // §5.2: resilient hashing cannot grow in place — bounce through the SMuxes
  // (which pin existing connections) and let the next epoch move it back.
  if (rec.home.has_value()) {
    withdraw_from_hmux(rec);
    // Keep the remembered assignment honest so the next sticky epoch knows
    // the VIP is currently on the SMuxes and re-places it.
    current_.placement.erase(rec.id);
    current_.on_smux.push_back(rec.id);
    journal_event(telemetry::EventKind::kVipFallback, vip, dip, telemetry::kNoSwitch,
                  "dip addition bounce");
  }
  rec.dips.push_back(dip);
  sync_smuxes(rec);
}

void DuetController::remove_dip(Ipv4Address vip, Ipv4Address dip) {
  auto& rec = record(vip);
  const auto pos = std::find(rec.dips.begin(), rec.dips.end(), dip);
  if (pos == rec.dips.end()) return;
  if (rec.dips.size() == 1) {
    // Last DIP: the VIP has no backends left.
    remove_vip(vip);
    return;
  }
  rec.dips.erase(pos);
  if (rec.home) {
    // Resilient hashing: surviving connections keep their DIPs (§5.1).
    ensure_hmux(*rec.home).dataplane().remove_vip_target(vip, dip);
  }
  bool touched_smux = false;
  for (auto& inst : smuxes_) {
    if (inst.alive && inst.mux->has_vip(vip)) {
      inst.mux->remove_dip(vip, dip);
      touched_smux = true;
    }
  }
  // In-place removal also builds a version under the stateless engine
  // (dead-owner buckets flip immediately, §5.1).
  if (config_.smux_engine == SmuxEngine::kStateless && touched_smux) {
    journal_event(telemetry::EventKind::kStatelessVersionBuild, vip, dip,
                  telemetry::kNoSwitch, "dip removal");
  }
}

void DuetController::report_dip_health(Ipv4Address vip, Ipv4Address dip, bool healthy) {
  journal_event(healthy ? telemetry::EventKind::kDipUp : telemetry::EventKind::kDipDown, vip,
                dip, telemetry::kNoSwitch, healthy ? "" : "removed from rotation");
  if (!healthy) remove_dip(vip, dip);
}

void DuetController::install_port_rule(Ipv4Address vip, std::uint16_t dst_port,
                                       std::vector<Ipv4Address> dips) {
  DUET_CHECK(!dips.empty()) << "port rule with no DIPs";
  auto& rec = record(vip);
  rec.port_rules[dst_port] = dips;
  if (rec.home.has_value()) {
    auto& dp = ensure_hmux(*rec.home).dataplane();
    dp.remove_port_rule(vip, dst_port);  // replace-if-present
    if (!dp.install_port_rule(vip, dst_port, dips)) {
      DUET_LOG_WARN << "ACL table full for port rule " << vip.to_string() << ":" << dst_port;
    }
  }
  for (auto& inst : smuxes_) {
    if (inst.alive) inst.mux->set_port_rule(vip, dst_port, dips);
  }
}

void DuetController::remove_port_rule(Ipv4Address vip, std::uint16_t dst_port) {
  auto& rec = record(vip);
  rec.port_rules.erase(dst_port);
  if (rec.home.has_value()) {
    ensure_hmux(*rec.home).dataplane().remove_port_rule(vip, dst_port);
  }
  for (auto& inst : smuxes_) {
    if (inst.alive) inst.mux->remove_port_rule(vip, dst_port);
  }
}

void DuetController::set_dip_weights(Ipv4Address vip, std::vector<std::uint32_t> weights) {
  auto& rec = record(vip);
  DUET_CHECK(weights.empty() || weights.size() == rec.dips.size())
      << "weights/dips size mismatch for " << vip.to_string();
  // Like DIP addition: the slot layout changes, so bounce through the SMuxes
  // (flow pins preserve existing connections) and return next epoch (§5.2).
  if (rec.home.has_value()) {
    withdraw_from_hmux(rec);
    current_.placement.erase(rec.id);
    current_.on_smux.push_back(rec.id);
    journal_event(telemetry::EventKind::kVipFallback, vip, {}, telemetry::kNoSwitch,
                  "wcmp weight bounce");
  }
  rec.weights = std::move(weights);
  sync_smuxes(rec);
}

bool DuetController::migrate_vip(Ipv4Address vip, std::optional<SwitchId> target) {
  auto& rec = record(vip);
  if (rec.home == target) return true;  // already where the operator wants it

  // Phase 1 (§4.2): withdraw — traffic falls through LPM onto the SMux
  // backstop, which always carries the VIP.
  if (rec.home.has_value()) {
    withdraw_from_hmux(rec);
    current_.placement.erase(rec.id);
    if (std::find(current_.on_smux.begin(), current_.on_smux.end(), rec.id) ==
        current_.on_smux.end()) {
      current_.on_smux.push_back(rec.id);
    }
    journal_event(telemetry::EventKind::kVipFallback, vip, {}, telemetry::kNoSwitch,
                  "operator migrate");
    audit_now(/*converged_placement=*/true, "migrate mid");
  }

  // Phase 2: announce from the new home (if any).
  bool ok = true;
  if (target.has_value()) {
    ok = place_on_hmux(rec, *target);
    if (ok) {
      current_.placement[rec.id] = *target;
      current_.on_smux.erase(
          std::remove(current_.on_smux.begin(), current_.on_smux.end(), rec.id),
          current_.on_smux.end());
    }
  }
  telemetry_.registry.counter("duet.controller.operator_migrations").inc();
  audit_now(/*converged_placement=*/true, "migrate end");
  return ok;
}

void DuetController::set_engine_override(Ipv4Address vip, std::optional<SmuxEngine> engine) {
  auto& rec = record(vip);
  rec.engine_override = engine;
  for (auto& inst : smuxes_) {
    if (!inst.alive) continue;
    if (engine.has_value()) {
      inst.mux->set_engine_override(vip, *engine);
    } else {
      inst.mux->clear_engine_override(vip);
    }
  }
}

std::optional<SmuxEngine> DuetController::engine_override_of(Ipv4Address vip) const {
  const auto* rec = find_record(vip);
  return rec == nullptr ? std::nullopt : rec->engine_override;
}

DuetController::EpochReport DuetController::run_epoch(const std::vector<VipDemand>& demands,
                                                      bool sticky) {
  EpochReport report;
  Assignment next = (sticky && have_assignment_) ? assigner_.assign_sticky(demands, current_)
                                                 : assigner_.assign(demands);

  report.migration = plan_migration(current_, next, demands);
  journal_migration_plan(report.migration, telemetry_.journal, clock_us_, [this](VipId id) {
    const auto it = vip_by_id_.find(id);
    return it == vip_by_id_.end() ? Ipv4Address{} : it->second;
  });

  // Phase 1 (§4.2): withdraw moving VIPs — their traffic falls to the SMuxes.
  for (const auto& move : report.migration.moves) {
    const auto it = vip_by_id_.find(move.vip);
    if (it == vip_by_id_.end()) continue;
    if (move.kind == MoveKind::kHmuxToHmux || move.kind == MoveKind::kHmuxToSmux) {
      withdraw_from_hmux(record(it->second));
    }
  }
  // Mid-migration audit: withdrawn VIPs must already be safe on the SMux
  // backstop, but the remembered placement intentionally disagrees with the
  // VipRecords until phase 2 lands.
  audit_now(/*converged_placement=*/false, "epoch mid-migration");

  // Phase 2: announce from the new homes.
  for (const auto& move : report.migration.moves) {
    const auto it = vip_by_id_.find(move.vip);
    if (it == vip_by_id_.end() || !move.to) continue;
    auto& rec = record(it->second);
    if (!place_on_hmux(rec, *move.to)) {
      // Fall back to SMux; fix the bookkeeping so current_ matches reality.
      next.placement.erase(move.vip);
      next.on_smux.push_back(move.vip);
      next.smux_gbps += move.gbps;
      next.hmux_gbps -= move.gbps;
    }
  }

  const auto failover = analyze_failover(*fabric_, demands, next);
  report.smuxes_needed = smuxes_needed(next.smux_gbps, failover.worst_gbps(),
                                       report.migration.shuffled_gbps,
                                       config_.smux_capacity_gbps());
  report.hmux_fraction = next.hmux_fraction();
  report.assignment = next;
  current_ = std::move(next);
  have_assignment_ = true;

  // Epoch-level metrics (§4: MRU is what the assignment minimizes).
  auto& reg = telemetry_.registry;
  reg.counter("duet.controller.epochs").inc();
  reg.gauge("duet.controller.mru").set(current_.mru);
  reg.gauge("duet.controller.hmux_fraction").set(report.hmux_fraction);
  reg.gauge("duet.controller.hmux_gbps").set(current_.hmux_gbps);
  reg.gauge("duet.controller.smux_gbps").set(current_.smux_gbps);
  reg.gauge("duet.controller.smuxes_needed").set(static_cast<double>(report.smuxes_needed));
  reg.gauge("duet.controller.migration_moves")
      .set(static_cast<double>(report.migration.move_count()));
  reg.gauge("duet.controller.migration_shuffled_gbps").set(report.migration.shuffled_gbps);

  audit_now(/*converged_placement=*/true, "epoch end");
  return report;
}

void DuetController::handle_switch_failure(SwitchId dead) {
  dead_switches_.insert(dead);
  journal_event(telemetry::EventKind::kHmuxDown, {}, {}, dead);
  telemetry_.registry.counter("duet.controller.switch_failures").inc();
  // BGP withdraws every route the dead switch originated (§5.1); VIP traffic
  // collapses onto the SMux aggregate.
  routing_.fail_origin_everywhere(dead);
  for (auto& [vip, rec] : vips_) {
    const bool primary_died = rec.home == dead;
    // A large-fanout VIP also depends on its TIP partition hosts: losing any
    // of them blackholes the partition's hash share, so the whole VIP falls
    // back to the SMuxes until the next epoch re-plans it.
    bool partition_died = false;
    if (rec.fanout.has_value()) {
      for (const auto& part : rec.fanout->partitions) {
        partition_died |= (part.host_switch == dead);
      }
    }
    if (primary_died || partition_died) {
      if (partition_died && !primary_died) {
        withdraw_from_hmux(rec);  // primary is alive: clean teardown
      } else if (rec.fanout.has_value()) {
        // Primary died: its routes are already gone; clean the partitions.
        for (const auto& part : rec.fanout->partitions) {
          if (part.host_switch == dead) continue;
          routing_.withdraw_everywhere(Ipv4Prefix::host_route(part.tip), part.host_switch);
          const auto hit = hmuxes_.find(part.host_switch);
          if (hit != hmuxes_.end()) hit->second->dataplane().remove_vip(part.tip);
        }
        rec.fanout.reset();
        rec.home.reset();
      } else {
        // The dead switch's routes vanished with it; journal the implicit
        // withdraw so the VIP's journal tells the full §5.1 story.
        journal_event(telemetry::EventKind::kBgpWithdraw, vip, {}, dead, "origin died");
        rec.home.reset();
      }
      current_.placement.erase(rec.id);
      current_.on_smux.push_back(rec.id);
      journal_event(telemetry::EventKind::kVipFallback, vip, {}, telemetry::kNoSwitch,
                    "smux backstop after switch failure");
    }
  }
  hmuxes_.erase(dead);

  audit_now(/*converged_placement=*/true, "switch failure");
}

void DuetController::handle_smux_failure(std::uint32_t smux_id) {
  for (auto& inst : smuxes_) {
    if (inst.id == smux_id && inst.alive) {
      inst.alive = false;
      routing_.withdraw_everywhere(aggregate_, inst.tor);
      telemetry::Event e{clock_us_, telemetry::EventKind::kSmuxDown,
                        {},        {},
                        inst.tor,  smux_id,
                        0,         0,
                        {}};
      telemetry_.journal.record(std::move(e));
      journal_event(telemetry::EventKind::kBgpWithdraw, {}, {}, inst.tor,
                    "smux aggregate " + aggregate_.to_string());
      audit_now(/*converged_placement=*/true, "smux failure");
      return;
    }
  }
  DUET_LOG_WARN << "unknown SMux id " << smux_id;
}

DuetController::Owner DuetController::owner_of(Ipv4Address vip) const {
  const auto* rec = find_record(vip);
  if (rec == nullptr) return Owner::kNone;
  return rec->home.has_value() ? Owner::kHmux : Owner::kSmux;
}

std::optional<SwitchId> DuetController::hmux_home(Ipv4Address vip) const {
  const auto* rec = find_record(vip);
  return rec == nullptr ? std::nullopt : rec->home;
}

std::vector<Ipv4Address> DuetController::vip_addresses() const {
  std::vector<Ipv4Address> out;
  out.reserve(vips_.size());
  for (const auto& [vip, rec] : vips_) out.push_back(vip);
  return out;
}

std::vector<Ipv4Address> DuetController::dips_of(Ipv4Address vip) const {
  const auto* rec = find_record(vip);
  return rec == nullptr ? std::vector<Ipv4Address>{} : rec->dips;
}

std::vector<std::uint32_t> DuetController::weights_of(Ipv4Address vip) const {
  const auto* rec = find_record(vip);
  return rec == nullptr ? std::vector<std::uint32_t>{} : rec->weights;
}

std::optional<Ipv4Address> DuetController::load_balance(Packet& packet) {
  // Converged view: every switch has the same RIB, so consult view 0.
  const Rib& rib = routing_.rib(0);
  const Ipv4Address dst = packet.routing_destination();
  const auto prefix = rib.best_prefix(dst);
  if (!prefix) return std::nullopt;

  if (prefix->length() == 32) {
    // HMux home route.
    const auto origins = rib.origins(*prefix);
    DUET_CHECK(!origins.empty()) << "matched /32 with no origin";
    const auto it = hmuxes_.find(origins.front());
    if (it == hmuxes_.end()) return std::nullopt;
    if (it->second->dataplane().process(packet) != PipelineVerdict::kEncapsulated) {
      return std::nullopt;
    }
    // §5.2 large fanout: if the outer destination is a TIP, the network
    // carries the packet to the TIP's switch, which decapsulates and
    // re-encapsulates toward a DIP of that partition at line rate.
    const auto tip_prefix = rib.best_prefix(packet.outer().outer_dst);
    if (tip_prefix.has_value() && tip_prefix->length() == 32) {
      const auto tip_origins = rib.origins(*tip_prefix);
      const auto tip_it = tip_origins.empty() ? hmuxes_.end() : hmuxes_.find(tip_origins.front());
      if (tip_it != hmuxes_.end() && tip_it->second->dataplane().has_vip(packet.outer().outer_dst)) {
        if (tip_it->second->dataplane().process(packet) != PipelineVerdict::kEncapsulated) {
          return std::nullopt;
        }
      }
    }
    return packet.outer().outer_dst;
  }

  // Aggregate route: ECMP over the live SMuxes.
  std::vector<Smux*> alive;
  for (auto& inst : smuxes_) {
    if (inst.alive) alive.push_back(inst.mux.get());
  }
  if (alive.empty()) return std::nullopt;
  Smux& smux = *alive[hasher_.bucket(packet.tuple(), static_cast<std::uint32_t>(alive.size()))];
  if (!smux.process(packet)) return std::nullopt;
  return packet.outer().outer_dst;
}

Hmux* DuetController::hmux_at(SwitchId s) {
  const auto it = hmuxes_.find(s);
  return it == hmuxes_.end() ? nullptr : it->second.get();
}

void DuetController::snapshot_table_occupancy() {
  std::size_t host = 0, ecmp = 0, tunnel = 0;
  std::uint64_t lookups = 0;
  for (const auto& [sw, hmux] : hmuxes_) {
    const auto& dp = hmux->dataplane();
    telemetry::Event e{clock_us_,
                       telemetry::EventKind::kTableOccupancy,
                       {},
                       {},
                       sw,
                       dp.host_entries_used(),
                       dp.ecmp_entries_used(),
                       dp.tunnel_entries_used(),
                       {}};
    telemetry_.journal.record(std::move(e));
    host += dp.host_entries_used();
    ecmp += dp.ecmp_entries_used();
    tunnel += dp.tunnel_entries_used();
    lookups += dp.table_lookups();
  }
  auto& reg = telemetry_.registry;
  reg.gauge("duet.dataplane.host_entries_used").set(static_cast<double>(host));
  reg.gauge("duet.dataplane.ecmp_entries_used").set(static_cast<double>(ecmp));
  reg.gauge("duet.dataplane.tunnel_entries_used").set(static_cast<double>(tunnel));
  reg.gauge("duet.dataplane.table_lookups").set(static_cast<double>(lookups));
  reg.gauge("duet.dataplane.hmux_count").set(static_cast<double>(hmuxes_.size()));
}

}  // namespace duet
