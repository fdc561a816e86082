// Tests for the invariant auditor (audit/): every invariant must detect a
// seeded violation, and a clean Fig-12-style failover run must audit clean
// at every stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "audit/check.h"
#include "audit/invariants.h"
#include "audit/snapshot.h"
#include "duet/controller.h"
#include "util/random.h"
#include "workload/tracegen.h"

namespace duet::audit {
namespace {

const Ipv4Prefix kAgg{Ipv4Address{100, 0, 0, 0}, 8};

// Restores the process audit level / counter around tests that poke them.
class AuditLevelGuard {
 public:
  AuditLevelGuard() : saved_(audit_level()) {}
  ~AuditLevelGuard() {
    set_audit_level(saved_);
    reset_violation_count();
  }

 private:
  AuditLevel saved_;
};

// --- the assertion library itself -------------------------------------------

TEST(AuditCheckTest, ParseLevels) {
  AuditLevel level = AuditLevel::kFatal;
  EXPECT_TRUE(parse_audit_level("off", level));
  EXPECT_EQ(level, AuditLevel::kOff);
  EXPECT_TRUE(parse_audit_level("log", level));
  EXPECT_EQ(level, AuditLevel::kLog);
  EXPECT_TRUE(parse_audit_level("fatal", level));
  EXPECT_EQ(level, AuditLevel::kFatal);
  EXPECT_TRUE(parse_audit_level("2", level));
  EXPECT_EQ(level, AuditLevel::kFatal);
  EXPECT_FALSE(parse_audit_level("loud", level));
}

TEST(AuditCheckTest, OffLevelSkipsConditionSideEffects) {
  AuditLevelGuard guard;
  set_audit_level(AuditLevel::kOff);
  reset_violation_count();
  int evaluations = 0;
  DUET_AUDIT("test-invariant", (++evaluations, false)) << "never reported";
  EXPECT_EQ(evaluations, 0);  // condition not evaluated when audits are off
  EXPECT_EQ(violation_count(), 0u);
}

TEST(AuditCheckTest, LogLevelCountsViolations) {
  AuditLevelGuard guard;
  set_audit_level(AuditLevel::kLog);
  reset_violation_count();
  DUET_AUDIT("test-invariant", 1 + 1 == 3) << "seeded failure";
  DUET_AUDIT("test-invariant", true) << "passes, not counted";
  DUET_AUDIT_WARN("test-warning", false) << "warning counted too";
  EXPECT_EQ(violation_count(), 2u);
}

TEST(AuditCheckTest, ViolationsFeedBoundRegistry) {
  AuditLevelGuard guard;
  set_audit_level(AuditLevel::kLog);
  reset_violation_count();
  telemetry::MetricRegistry registry;
  bind_registry(&registry);
  report_violation("phantom-route", Severity::kError, "seeded");
  bind_registry(nullptr);
  const auto* total = registry.find_counter("duet.audit.violations");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value(), 1u);
  const auto* named = registry.find_counter("duet.audit.violation.phantom-route");
  ASSERT_NE(named, nullptr);
  EXPECT_EQ(named->value(), 1u);
}

TEST(AuditCheckTest, UnbindIsConditionalOnTheBoundRegistry) {
  AuditLevelGuard guard;
  set_audit_level(AuditLevel::kLog);
  reset_violation_count();
  telemetry::MetricRegistry bound;
  telemetry::MetricRegistry other;
  bind_registry(&bound);
  unbind_registry(&other);  // not the bound one: must be a no-op
  report_violation("unbind-check", Severity::kWarning, "counts into bound");
  EXPECT_EQ(bound.counter("duet.audit.violations").value(), 1u);
  unbind_registry(&bound);
  report_violation("unbind-check", Severity::kWarning, "registry gone, still counted");
  EXPECT_EQ(bound.counter("duet.audit.violations").value(), 1u);  // unchanged
  EXPECT_EQ(violation_count(), 2u);
}

TEST(AuditCheckTest, ControllerDestructionUnbindsItsRegistry) {
  AuditLevelGuard guard;
  set_audit_level(AuditLevel::kLog);
  reset_violation_count();
  {
    const FatTree fabric = build_fattree(FatTreeParams::scaled(3, 4, 3));
    const DuetController controller{fabric, DuetConfig{}, FlowHasher{7}, 11};
  }
  // Before the ~DuetController unbind, this report dereferenced the dead
  // controller's registry — a heap-use-after-free the ASan leg catches when
  // any controller test precedes an audit report in the same process.
  report_violation("controller-lifetime", Severity::kWarning, "after controller death");
  EXPECT_EQ(violation_count(), 1u);
}

TEST(AuditCheckDeathTest, FatalLevelAborts) {
  AuditLevelGuard guard;
  set_audit_level(AuditLevel::kFatal);
  EXPECT_DEATH(
      { DUET_AUDIT("test-invariant", false) << "fatal seeded failure"; },
      "test-invariant");
  // Warnings never abort, even at the fatal level.
  DUET_AUDIT_WARN("test-warning", false) << "survivable";
}

// --- invariant catalogue -----------------------------------------------------

TEST(InvariantCatalogueTest, EveryInvariantIsDocumented) {
  const auto& catalogue = InvariantAuditor::invariants();
  EXPECT_GE(catalogue.size(), 15u);
  for (const auto& info : catalogue) {
    EXPECT_NE(std::string_view(info.name), "");
    EXPECT_NE(std::string_view(info.paper_ref), "");
    EXPECT_NE(std::string_view(info.description), "");
  }
}

// --- snapshot audits: seeded violations --------------------------------------

class InvariantAuditorTest : public ::testing::Test {
 protected:
  InvariantAuditorTest()
      : fabric_(build_fattree(FatTreeParams::scaled(3, 4, 3))),
        controller_(fabric_, DuetConfig{}, FlowHasher{7}, 11) {
    controller_.deploy_smuxes({fabric_.tors[0], fabric_.tors[5]}, kAgg);
    TraceParams params;
    params.vip_count = 80;
    params.total_gbps = 150.0;
    params.epochs = 2;
    params.max_dips = 40;
    trace_ = generate_trace(fabric_, params);
    for (const auto& v : trace_.vips) controller_.add_vip(v.vip, v.dips);
    controller_.run_epoch(build_demands(fabric_, trace_, 0));
    snap_ = SystemSnapshot::capture(controller_);
  }

  // A VIP that landed on hardware (the fixture guarantees at least one).
  VipSnapshot& hmux_vip() {
    for (auto& v : snap_.vips) {
      if (v.home.has_value()) return v;
    }
    ADD_FAILURE() << "no VIP on an HMux";
    return snap_.vips.front();
  }

  SwitchSnapshot& switch_of(SwitchId id) {
    for (auto& s : snap_.switches) {
      if (s.id == id) return s;
    }
    ADD_FAILURE() << "switch " << id << " not captured";
    return snap_.switches.front();
  }

  AuditReport audit() const { return InvariantAuditor{}.audit(snap_); }

  FatTree fabric_;
  DuetController controller_;
  Trace trace_;
  SystemSnapshot snap_;
};

TEST_F(InvariantAuditorTest, CleanSystemAuditsClean) {
  const auto report = audit();
  EXPECT_TRUE(report.clean()) << report.summary() << "\nfirst: "
                              << (report.violations.empty() ? ""
                                                            : report.violations[0].message);
  EXPECT_GE(report.checks_run, 14u);
  EXPECT_TRUE(InvariantAuditor{}.audit_journal(controller_.journal()).clean());
}

TEST_F(InvariantAuditorTest, DetectsTableOverCapacity) {
  auto& sw = switch_of(*hmux_vip().home);
  sw.host_capacity = sw.host_used - 1;
  EXPECT_GE(audit().count("table-capacity"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsOccupancyDrift) {
  auto& sw = switch_of(*hmux_vip().home);
  sw.ecmp_used += 3;  // claims members no group accounts for
  EXPECT_GE(audit().count("occupancy-accounting"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsDanglingEcmpGroup) {
  auto& sw = switch_of(*hmux_vip().home);
  ASSERT_FALSE(sw.installs.empty());
  sw.installs[0].group = 60000;  // no such group
  EXPECT_GE(audit().count("ecmp-tunnel-refs"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsTunnelTargetMismatch) {
  auto& sw = switch_of(*hmux_vip().home);
  ASSERT_FALSE(sw.tunnel_entries.empty());
  sw.tunnel_entries.begin()->second = Ipv4Address{203, 0, 113, 77};
  EXPECT_GE(audit().count("ecmp-tunnel-refs"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsLeakedTunnelEntry) {
  auto& sw = switch_of(*hmux_vip().home);
  sw.tunnel_entries[65000] = Ipv4Address{203, 0, 113, 99};  // owned by nobody
  EXPECT_GE(audit().count("no-leaked-tunnels"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsSecondAnnouncer) {
  auto& vip = hmux_vip();
  vip.announcers.push_back(*vip.home + 1);
  EXPECT_GE(audit().count("single-announcer"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsAnnouncerForSmuxVip) {
  // Demote an HMux VIP to the SMux pool but leave its /32 behind — the
  // stale-announce bug §4.2's withdraw-first ordering exists to prevent.
  auto& vip = hmux_vip();
  ASSERT_FALSE(vip.announcers.empty());
  vip.home.reset();
  vip.placement_switch.reset();
  vip.on_smux_list = true;
  EXPECT_GE(audit().count("single-announcer"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsAnnouncerWithoutEntries) {
  auto& vip = hmux_vip();
  auto& sw = switch_of(*vip.home);
  std::erase_if(sw.installs, [&](const SwitchDataPlane::InstallInfo& i) {
    return i.address == vip.vip;
  });
  EXPECT_GE(audit().count("announcer-holds-vip"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsOrphanRoute) {
  snap_.host_routes.emplace_back(Ipv4Address{198, 51, 100, 1}, SwitchId{2});
  EXPECT_GE(audit().count("no-orphan-routes"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsRouteFromWrongOrigin) {
  auto& vip = hmux_vip();
  for (auto& [address, origin] : snap_.host_routes) {
    if (address == vip.vip) origin = *vip.home + 1;
  }
  EXPECT_GE(audit().count("no-orphan-routes"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsBrokenBackstop) {
  hmux_vip().aggregate_covers = false;
  EXPECT_GE(audit().count("smux-backstop"), 1u);
}

TEST_F(InvariantAuditorTest, WarnsWhenNoSmuxLives) {
  snap_.live_smux_count = 0;
  const auto report = audit();
  ASSERT_GE(report.count("smux-backstop"), 1u);
  for (const auto& v : report.violations) {
    if (v.invariant == "smux-backstop") {
      EXPECT_EQ(v.severity, Severity::kWarning);
    }
  }
}

TEST_F(InvariantAuditorTest, DetectsSmuxMissingVip) {
  ASSERT_GT(hmux_vip().live_smuxes_holding, 0u);
  hmux_vip().live_smuxes_holding -= 1;
  EXPECT_GE(audit().count("smux-holds-all-vips"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsGlobalHostTableOverflow) {
  ASSERT_GE(snap_.host_routes.size(), 2u);
  snap_.host_table_capacity = 1;
  EXPECT_GE(audit().count("host-table-global-limit"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsUnquiescedDeadSwitch) {
  const SwitchId dead = *hmux_vip().home;
  snap_.dead_switches.push_back(dead);
  const auto report = audit();
  // Routes, data-plane entries, and the VIP home all still reference it.
  EXPECT_GE(report.count("dead-switch-quiesced"), 3u);
}

TEST_F(InvariantAuditorTest, DetectsBrokenFanout) {
  auto& vip = hmux_vip();
  FanoutPartitionSnapshot part;
  part.tip = Ipv4Address{210, 9, 9, 9};  // never installed, never announced
  part.host_switch = *vip.home;
  part.dip_count = 0;
  vip.fanout.push_back(part);
  const auto report = audit();
  // Missing install, missing /32, and partition coverage != dip_count.
  EXPECT_GE(report.count("fanout-integrity"), 3u);
}

TEST_F(InvariantAuditorTest, DetectsEncapTowardNonDecapInstall) {
  // Point a tunnel entry at another installed VIP that does not decap:
  // the second hop would double-encapsulate (§5.2).
  auto& vip = hmux_vip();
  auto& sw = switch_of(*vip.home);
  ASSERT_FALSE(sw.tunnel_entries.empty());
  sw.tunnel_entries.begin()->second = vip.vip;
  EXPECT_GE(audit().count("single-encap"), 1u);
}

TEST_F(InvariantAuditorTest, DetectsPlacementDisagreement) {
  hmux_vip().home.reset();  // record says SMux, assignment says HMux
  EXPECT_GE(audit().count("placement-consistency"), 1u);
  // Mid-migration that disagreement is expected; the option skips the check.
  InvariantAuditor relaxed(AuditOptions{/*expect_converged_placement=*/false});
  EXPECT_EQ(relaxed.audit(snap_).count("placement-consistency"), 0u);
}

TEST_F(InvariantAuditorTest, DetectsInconsistentRibViews) {
  snap_.views_consistent = false;
  EXPECT_GE(audit().count("single-announcer"), 1u);
}

// --- journal audits: the §4.2 temporal invariant ------------------------------

TEST(JournalAuditTest, ThroughSmuxMigrationIsClean) {
  telemetry::EventJournal journal;
  const Ipv4Address vip{100, 1, 2, 3};
  journal.record(0.0, telemetry::EventKind::kBgpAnnounce, vip, {}, 4);
  journal.record(10.0, telemetry::EventKind::kBgpWithdraw, vip, {}, 4);
  journal.record(20.0, telemetry::EventKind::kBgpAnnounce, vip, {}, 9);
  EXPECT_TRUE(InvariantAuditor{}.audit_journal(journal).clean());
}

TEST(JournalAuditTest, DetectsDirectHmuxToHmuxMove) {
  telemetry::EventJournal journal;
  const Ipv4Address vip{100, 1, 2, 3};
  journal.record(0.0, telemetry::EventKind::kBgpAnnounce, vip, {}, 4);
  journal.record(20.0, telemetry::EventKind::kBgpAnnounce, vip, {}, 9);  // withdraw skipped
  journal.record(30.0, telemetry::EventKind::kBgpWithdraw, vip, {}, 4);
  EXPECT_GE(InvariantAuditor{}.audit_journal(journal).count("migration-through-smux"), 1u);
}

TEST(JournalAuditTest, DetectsUnmatchedWithdraw) {
  telemetry::EventJournal journal;
  const Ipv4Address vip{100, 1, 2, 3};
  journal.record(0.0, telemetry::EventKind::kBgpWithdraw, vip, {}, 4);
  EXPECT_GE(InvariantAuditor{}.audit_journal(journal).count("journal-withdraw-matches"), 1u);
}

TEST(JournalAuditTest, IgnoresAggregateRoutes) {
  telemetry::EventJournal journal;
  // SMux aggregate announces carry no VIP; two origins are normal.
  journal.record(0.0, telemetry::EventKind::kBgpAnnounce, {}, {}, 4, "smux aggregate");
  journal.record(0.0, telemetry::EventKind::kBgpAnnounce, {}, {}, 9, "smux aggregate");
  EXPECT_TRUE(InvariantAuditor{}.audit_journal(journal).clean());
}

// --- the journal cursor: incremental folds equal a full replay ----------------

// A random announce/withdraw stream over three VIPs and the aggregate, with
// ties, out-of-order times, and (by chance, then checked) two-announcer and
// unmatched-withdraw violations.
std::vector<telemetry::Event> random_stream(Rng& rng, std::size_t n) {
  const Ipv4Address vips[] = {Ipv4Address{}, Ipv4Address{100, 1, 0, 1}, Ipv4Address{100, 1, 0, 2},
                              Ipv4Address{100, 1, 0, 3}};
  const telemetry::EventKind kinds[] = {telemetry::EventKind::kBgpAnnounce,
                                        telemetry::EventKind::kBgpWithdraw,
                                        telemetry::EventKind::kVipPlaced};
  std::vector<telemetry::Event> out;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t step = rng.uniform(10);
    if (step < 4) {
      // tie: same instant as the previous event
    } else if (step < 9) {
      t += static_cast<double>(rng.uniform(3) + 1);
    } else {
      t -= static_cast<double>(rng.uniform(5) + 1);  // out of order
    }
    telemetry::Event e;
    e.t_us = t;
    e.kind = kinds[rng.uniform(3)];
    e.vip = vips[rng.uniform(4)];
    e.sw = static_cast<std::uint32_t>(rng.uniform(3) + 1);
    out.push_back(e);
  }
  return out;
}

std::vector<std::string> messages(const AuditReport& r) {
  std::vector<std::string> out;
  for (const auto& v : r.violations) out.push_back(v.invariant + ": " + v.message);
  return out;
}

TEST(JournalCursorTest, IncrementalFoldEqualsFullReplayAtEverySplit) {
  const InvariantAuditor auditor;
  std::size_t two_announcers = 0;
  std::size_t unmatched = 0;
  std::size_t refolds = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const auto stream = random_stream(rng, 24 + rng.uniform(24));
    telemetry::EventJournal whole;
    for (const auto& e : stream) whole.record(e);
    JournalCursor full;
    const AuditReport expected = auditor.audit_journal(whole, full);
    two_announcers += expected.count("migration-through-smux");
    unmatched += expected.count("journal-withdraw-matches");

    for (std::size_t split = 0; split <= stream.size(); ++split) {
      telemetry::EventJournal journal;
      for (std::size_t i = 0; i < split; ++i) journal.record(stream[i]);
      JournalCursor cursor;
      const AuditReport first = auditor.audit_journal(journal, cursor);
      for (std::size_t i = split; i < stream.size(); ++i) journal.record(stream[i]);
      const std::uint64_t before = cursor.events_folded;
      const AuditReport second = auditor.audit_journal(journal, cursor);
      const bool refolded = cursor.events_folded - before == stream.size() && split > 0;
      refolds += refolded ? 1 : 0;

      // A continued fold folds only the suffix; its violations complete the
      // first audit's. A refold reports the full replay's.
      auto reported = messages(second);
      if (!refolded) {
        EXPECT_EQ(cursor.events_folded - before, stream.size() - split);
        auto all = messages(first);
        all.insert(all.end(), reported.begin(), reported.end());
        reported = std::move(all);
      }
      EXPECT_EQ(reported, messages(expected)) << "seed " << seed << " split " << split;
      EXPECT_EQ(cursor.announcers, full.announcers) << "seed " << seed << " split " << split;
      EXPECT_EQ(cursor.watermark_us, full.watermark_us);
      EXPECT_EQ(cursor.folded, stream.size());
    }
  }
  // The corpus exercised every path.
  EXPECT_GT(two_announcers, 0u);
  EXPECT_GT(unmatched, 0u);
  EXPECT_GT(refolds, 0u);
}

TEST(JournalCursorTest, ClearedJournalRefoldsEvenWhenItRegrowsLonger) {
  const InvariantAuditor auditor;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const auto before = random_stream(rng, 8);
    const auto after = random_stream(rng, 16);  // longer: size alone cannot tell
    telemetry::EventJournal journal;
    for (const auto& e : before) journal.record(e);
    JournalCursor cursor;
    (void)auditor.audit_journal(journal, cursor);
    journal.clear();
    for (const auto& e : after) journal.record(e);
    const AuditReport got = auditor.audit_journal(journal, cursor);

    telemetry::EventJournal fresh;
    for (const auto& e : after) fresh.record(e);
    JournalCursor full;
    const AuditReport expected = auditor.audit_journal(fresh, full);
    EXPECT_EQ(messages(got), messages(expected)) << "seed " << seed;
    EXPECT_EQ(cursor.announcers, full.announcers) << "seed " << seed;
  }
}

TEST(JournalCursorTest, FoldAfterEveryAppendReportsEachViolationOnce) {
  const InvariantAuditor auditor;
  telemetry::EventJournal journal;
  JournalCursor cursor;
  const Ipv4Address vip{100, 1, 2, 3};
  std::vector<std::string> reported;
  const auto step = [&](double t, telemetry::EventKind kind, std::uint32_t sw) {
    journal.record(t, kind, vip, {}, sw);
    for (auto& m : messages(auditor.audit_journal(journal, cursor))) reported.push_back(m);
  };
  step(0.0, telemetry::EventKind::kBgpAnnounce, 4);
  step(10.0, telemetry::EventKind::kBgpAnnounce, 9);  // two announcers
  step(20.0, telemetry::EventKind::kBgpWithdraw, 4);
  step(30.0, telemetry::EventKind::kBgpWithdraw, 7);  // unmatched
  step(40.0, telemetry::EventKind::kBgpWithdraw, 9);
  ASSERT_EQ(reported.size(), 2u);
  EXPECT_EQ(reported, messages(auditor.audit_journal(journal)));
  EXPECT_EQ(cursor.events_folded, 5u);
}

TEST(JournalCursorTest, MigrateAfterLongChurnFoldsOnlyTheNewEvents) {
  AuditLevelGuard guard;
  set_audit_level(AuditLevel::kLog);
  // duetd's shape: the small fabric, three SMuxes, one VIP migrated.
  FatTree fabric = build_fattree(FatTreeParams::scaled(2, 4, 2));
  DuetController controller(fabric, DuetConfig{}, FlowHasher{1}, 1);
  controller.deploy_smuxes({fabric.tors.front(), fabric.tors[fabric.tors.size() / 2],
                            fabric.tors.back()},
                           kAgg);
  const Ipv4Address vip{100, 0, 1, 1};
  controller.add_vip(vip, {Ipv4Address{10, 0, 0, 1}, Ipv4Address{10, 0, 0, 2}});
  const SwitchId target = fabric.tors.front();
  const auto folded = [&] {
    return controller.metrics().counter("duet.audit.journal_events_folded").value();
  };
  double t_us = 0.0;
  const auto tick = [&] { controller.set_clock_us(t_us += 10.0); };
  tick();
  ASSERT_TRUE(controller.migrate_vip(vip, target));
  tick();
  ASSERT_TRUE(controller.migrate_vip(vip, std::nullopt));
  EXPECT_EQ(folded(), controller.journal().size());
  std::size_t audited = controller.journal().size();

  // 10k churn ops, none of which audits.
  for (std::uint32_t i = 0; i < 2500; ++i) {
    const Ipv4Address v{(100u << 24) + (2u << 16) + i};
    const Ipv4Address d1{(10u << 24) + (1u << 16) + i};
    const Ipv4Address d2{(10u << 24) + (2u << 16) + i};
    tick();
    controller.add_vip(v, {d1});
    tick();
    controller.add_dip(v, d2);
    tick();
    controller.remove_dip(v, d1);
    tick();
    controller.remove_vip(v);
  }
  ASSERT_GE(controller.journal().size() - audited, 5000u);

  // The first migrate after the churn folds exactly what was appended since
  // the priming migrate audited; the next one folds only its own events.
  std::uint64_t last_delta = 0;
  for (const std::optional<SwitchId> to : {std::optional<SwitchId>{target},
                                           std::optional<SwitchId>{}}) {
    const std::uint64_t folded_before = folded();
    tick();
    ASSERT_TRUE(controller.migrate_vip(vip, to));
    last_delta = folded() - folded_before;
    EXPECT_EQ(last_delta, controller.journal().size() - audited);
    audited = controller.journal().size();
  }
  EXPECT_LT(last_delta, 64u) << "a migrate on a quiet journal refolded its history";
}

// --- integration: Fig-12-style failover stays clean ---------------------------

TEST(AuditIntegrationTest, FailoverTraceAuditsCleanAtEveryStage) {
  FatTree fabric = build_fattree(FatTreeParams::scaled(3, 4, 3));
  DuetController controller(fabric, DuetConfig{}, FlowHasher{7}, 11);
  controller.deploy_smuxes({fabric.tors[0], fabric.tors[5]}, kAgg);

  TraceParams params;
  params.vip_count = 100;
  params.total_gbps = 180.0;
  params.epochs = 3;
  params.max_dips = 50;
  const Trace trace = generate_trace(fabric, params);
  for (const auto& v : trace.vips) controller.add_vip(v.vip, v.dips);

  const InvariantAuditor auditor;
  auto expect_clean = [&](const char* stage) {
    auto report = auditor.audit(SystemSnapshot::capture(controller));
    report.merge(auditor.audit_journal(controller.journal()));
    EXPECT_TRUE(report.clean())
        << stage << ": " << report.summary() << "\nfirst: "
        << (report.violations.empty() ? "" : report.violations[0].message);
  };

  expect_clean("after deploy");
  controller.set_clock_us(1e6);
  controller.run_epoch(build_demands(fabric, trace, 0));
  expect_clean("after epoch 0");

  // Fail the switch carrying the heaviest VIP (the Fig 12 experiment).
  const auto home = controller.hmux_home(trace.vips[0].vip);
  ASSERT_TRUE(home.has_value());
  controller.set_clock_us(2e6);
  controller.handle_switch_failure(*home);
  expect_clean("after switch failure");
  EXPECT_EQ(controller.owner_of(trace.vips[0].vip), DuetController::Owner::kSmux);

  // One SMux dies too; the survivor still backstops everything.
  controller.set_clock_us(3e6);
  controller.handle_smux_failure(0);
  expect_clean("after smux failure");

  // Recovery epoch: the fallen VIPs stay served (the assigner may re-pick
  // the dead switch, in which case the controller keeps them on the SMux
  // backstop — either way every invariant must hold).
  controller.set_clock_us(4e6);
  controller.run_epoch(build_demands(fabric, trace, 1));
  expect_clean("after recovery epoch");
  EXPECT_NE(controller.owner_of(trace.vips[0].vip), DuetController::Owner::kNone);
  Packet probe{FiveTuple{Ipv4Address{172, 16, 9, 9}, trace.vips[0].vip, 999, 80, IpProto::kTcp},
               1500};
  EXPECT_TRUE(controller.load_balance(probe).has_value());
}

}  // namespace
}  // namespace duet::audit
