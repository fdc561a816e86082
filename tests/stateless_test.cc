// Stateless decision engine: the versioned VIP→DIP map, its PCC guarantees,
// the version-retirement invariant, engine selection/dispatch, and the
// SYN-flood head-to-head (DESIGN.md §13).
#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/plan.h"
#include "chaos/runner.h"
#include "duet/config.h"
#include "duet/decision_engine.h"
#include "duet/smux.h"
#include "exec/sweep.h"
#include "exec/thread_pool.h"
#include "net/hash.h"
#include "net/packet.h"
#include "stateless/stateless_engine.h"
#include "stateless/versioned_map.h"
#include "telemetry/metrics.h"
#include "util/mix.h"
#include "util/random.h"

namespace duet {
namespace {

constexpr Ipv4Address kVip{100, 0, 0, 1};

std::vector<Ipv4Address> make_dips(std::size_t n, std::uint8_t net = 50) {
  std::vector<Ipv4Address> dips;
  for (std::size_t d = 0; d < n; ++d) {
    dips.push_back(Ipv4Address{10, net, static_cast<std::uint8_t>((d >> 8) & 255),
                               static_cast<std::uint8_t>(d & 255)});
  }
  return dips;
}

FiveTuple flow_tuple(std::size_t i, std::uint16_t src_port = 0) {
  return FiveTuple{Ipv4Address{10, 1, static_cast<std::uint8_t>((i >> 8) & 255),
                               static_cast<std::uint8_t>(i & 255)},
                   kVip, src_port != 0 ? src_port : static_cast<std::uint16_t>(1024 + i % 60000),
                   80, IpProto::kTcp};
}

std::map<Ipv4Address, std::size_t> owner_histogram(const stateless::MapVersion& v) {
  std::map<Ipv4Address, std::size_t> histo;
  for (const Ipv4Address d : v.owner) ++histo[d];
  return histo;
}

// ---------------------------------------------------------------------------
// VersionedPoolMap: coloring properties
// ---------------------------------------------------------------------------

TEST(VersionedMap, CoversPoolAndRespectsWeights) {
  stateless::StatelessKnobs knobs;
  knobs.buckets_per_dip = 256;  // fine-grained: shares converge
  stateless::VersionedPoolMap map(0xabcdULL, knobs);

  const auto dips = make_dips(4);
  const std::vector<std::uint32_t> weights{1, 1, 2, 4};
  ASSERT_TRUE(map.rebuild(VipPool::build(dips, weights, 1), 0.0));

  const stateless::MapVersion* v = map.version(map.newest_epoch());
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->owner.size(), map.bucket_count());
  const auto histo = owner_histogram(*v);
  ASSERT_EQ(histo.size(), dips.size());  // every DIP owns some buckets
  const double total = static_cast<double>(map.bucket_count());
  for (std::size_t d = 0; d < dips.size(); ++d) {
    const double share = static_cast<double>(histo.at(dips[d])) / total;
    const double want = weights[d] / 8.0;
    EXPECT_GT(share, want * 0.6) << "DIP " << d << " starved";
    EXPECT_LT(share, want * 1.5) << "DIP " << d << " over-weighted";
  }
}

TEST(VersionedMap, AddStealsOnlyForTheNewDip) {
  stateless::VersionedPoolMap map(0x1111ULL, stateless::StatelessKnobs{});
  auto dips = make_dips(8);
  ASSERT_TRUE(map.rebuild(VipPool::build(dips, {}, 1), 0.0));
  const stateless::MapVersion before = *map.version(map.newest_epoch());

  dips.push_back(Ipv4Address{10, 51, 0, 1});
  ASSERT_TRUE(map.rebuild(VipPool::build(dips, {}, 1), 0.0));
  const stateless::MapVersion& after = *map.version(map.newest_epoch());

  std::size_t stolen = 0;
  for (std::size_t b = 0; b < before.owner.size(); ++b) {
    if (after.owner[b] != before.owner[b]) {
      EXPECT_EQ(after.owner[b], dips.back()) << "bucket moved to a non-added DIP";
      ++stolen;
    }
  }
  EXPECT_GT(stolen, 0u);
  EXPECT_LT(stolen, before.owner.size() / 4);  // ~1/9 expected, never a remap storm
}

TEST(VersionedMap, RemoveRecolorsOnlyTheRemovedDipsBuckets) {
  stateless::VersionedPoolMap map(0x2222ULL, stateless::StatelessKnobs{});
  const auto dips = make_dips(8);
  ASSERT_TRUE(map.rebuild(VipPool::build(dips, {}, 1), 0.0));
  const stateless::MapVersion before = *map.version(map.newest_epoch());

  const Ipv4Address removed = dips[3];
  auto remaining = dips;
  remaining.erase(remaining.begin() + 3);
  ASSERT_TRUE(map.rebuild(VipPool::build(remaining, {}, 1), 0.0, removed));
  const stateless::MapVersion& after = *map.version(map.newest_epoch());

  for (std::size_t b = 0; b < before.owner.size(); ++b) {
    if (before.owner[b] == removed) {
      EXPECT_NE(after.owner[b], removed);
    } else {
      EXPECT_EQ(after.owner[b], before.owner[b]) << "surviving DIP's bucket moved";
    }
  }
}

TEST(VersionedMap, NoopRebuildInstallsNoVersion) {
  stateless::VersionedPoolMap map(0x3333ULL, stateless::StatelessKnobs{});
  const auto pool = VipPool::build(make_dips(4), {}, 1);
  ASSERT_TRUE(map.rebuild(pool, 0.0));
  EXPECT_FALSE(map.rebuild(pool, 1.0));  // controller re-sync: same coloring
  EXPECT_EQ(map.version_count(), 1u);
  EXPECT_EQ(map.stats().noop_builds, 1u);
}

TEST(VersionedMap, DrainedBucketsAdoptWarmBucketsHold) {
  stateless::StatelessKnobs knobs;
  knobs.drain_idle_us = 10.0;
  knobs.max_versions = 0;
  stateless::VersionedPoolMap map(0x4444ULL, knobs);
  auto dips = make_dips(4);
  ASSERT_TRUE(map.rebuild(VipPool::build(dips, {}, 1), 0.0));
  const std::uint32_t e0 = map.newest_epoch();

  // Warm a working set at t=0, then recolor (add a DIP) at t=1.
  for (std::uint64_t h = 0; h < 4096; ++h) map.lookup(mix64(h), 0.0);
  dips.push_back(Ipv4Address{10, 51, 0, 1});
  ASSERT_TRUE(map.rebuild(VipPool::build(dips, {}, 1), 1.0));

  // t=5: 5 µs since last packet < 10 µs drain — recolored buckets hold.
  const auto held_before = map.stats().held_lookups;
  for (std::uint64_t h = 0; h < 4096; ++h) {
    const Ipv4Address got = map.lookup(mix64(h), 5.0);
    const std::size_t b = map.bucket_of(mix64(h));
    EXPECT_EQ(got, map.version(map.stamp(b))->owner[b]);
    if (map.stamp(b) == e0) {
      EXPECT_NE(map.version(e0), nullptr);
    }
  }
  EXPECT_GT(map.stats().held_lookups, held_before);

  // t=100: every bucket idle >= 10 µs — all adopt the newest version.
  const stateless::MapVersion newest = *map.version(map.newest_epoch());
  for (std::uint64_t h = 0; h < 4096; ++h) {
    const Ipv4Address got = map.lookup(mix64(h), 100.0);
    EXPECT_EQ(got, newest.owner[map.bucket_of(mix64(h))]);
  }
  EXPECT_GT(map.stats().adoptions, 0u);
}

// ---------------------------------------------------------------------------
// Version retirement: the lifetime invariant
// ---------------------------------------------------------------------------

// Property: across randomized churn, a version is NEVER freed while any
// bucket stamp references it (and with max_versions=0 nothing is forced).
TEST(VersionedMap, RetirementInvariantUnderRandomChurn) {
  stateless::StatelessKnobs knobs;
  knobs.max_versions = 0;
  knobs.min_buckets = 64;
  stateless::VersionedPoolMap map(0x5555ULL, knobs);
  Rng rng(7);
  std::vector<Ipv4Address> live = make_dips(6);
  ASSERT_TRUE(map.rebuild(VipPool::build(live, {}, 1), 0.0));

  double now = 1.0;
  std::size_t next_added = 0;
  for (int iter = 0; iter < 200; ++iter) {
    // Keep a random working set warm (clock stays far below the drain idle).
    for (int k = 0; k < 64; ++k) map.lookup(rng(), now);
    now += 1.0;

    Ipv4Address removed{};
    const std::uint64_t kind = rng.uniform(3);
    if (kind == 0 || (kind == 1 && live.size() <= 2)) {
      live.push_back(Ipv4Address{10, 60, static_cast<std::uint8_t>(next_added >> 8),
                                 static_cast<std::uint8_t>(next_added & 255)});
      ++next_added;
      map.rebuild(VipPool::build(live, {}, 1), now);
    } else if (kind == 1) {
      const std::size_t victim = static_cast<std::size_t>(rng.uniform(live.size()));
      removed = live[victim];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      map.rebuild(VipPool::build(live, {}, 1), now, removed);
    } else {
      std::vector<std::uint32_t> weights;
      for (std::size_t d = 0; d < live.size(); ++d) {
        weights.push_back(static_cast<std::uint32_t>(1 + rng.uniform(4)));
      }
      map.rebuild(VipPool::build(live, weights, 1), now);
    }

    // The invariant: every stamped epoch resolves to a retained version.
    for (const std::uint32_t e : map.referenced_epochs()) {
      ASSERT_NE(map.version(e), nullptr) << "bucket references a retired version";
    }
    ASSERT_EQ(map.stats().forced_adoptions, 0u);
  }
  EXPECT_GT(map.stats().retired_versions, 0u);  // churn did retire drained history
}

// ASan-visible form: read a pinned version's bucket data through a raw
// pointer across many rebuilds. If retirement ever freed a still-referenced
// version, this test is a heap-use-after-free under the sanitizer build.
TEST(VersionedMap, PinnedVersionDataOutlivesRebuilds) {
  stateless::StatelessKnobs knobs;
  knobs.max_versions = 0;
  stateless::VersionedPoolMap map(0x6666ULL, knobs);
  auto dips = make_dips(4);
  ASSERT_TRUE(map.rebuild(VipPool::build(dips, {}, 1), 0.0));
  const std::uint32_t e0 = map.newest_epoch();

  for (std::uint64_t h = 0; h < 8192; ++h) map.lookup(mix64(h), 0.0);  // warm
  const stateless::MapVersion* v0 = map.version(e0);
  ASSERT_NE(v0, nullptr);
  const std::vector<Ipv4Address> v0_owner_copy = v0->owner;

  for (int k = 0; k < 10; ++k) {
    dips.push_back(Ipv4Address{10, 61, 0, static_cast<std::uint8_t>(k + 1)});
    map.rebuild(VipPool::build(dips, {}, 1), 1.0 + k);
  }

  // Warm recolored buckets still stamp e0; its data must be alive and intact.
  const auto referenced = map.referenced_epochs();
  ASSERT_TRUE(std::find(referenced.begin(), referenced.end(), e0) != referenced.end());
  ASSERT_EQ(map.version(e0), v0) << "retained version moved or was replaced";
  std::size_t pinned_buckets = 0;
  for (std::size_t b = 0; b < map.bucket_count(); ++b) {
    if (map.stamp(b) == e0) {
      EXPECT_EQ(v0->owner[b], v0_owner_copy[b]);
      ++pinned_buckets;
    }
  }
  EXPECT_GT(pinned_buckets, 0u);
}

// Growing the DIP set past the bucket headroom regrows the array by bucket
// splitting; a warm flow's decision must survive the resize bit-for-bit.
TEST(VersionedMap, RegrowPreservesPinnedDecisions) {
  stateless::StatelessKnobs knobs;
  knobs.min_buckets = 64;
  knobs.max_versions = 0;
  stateless::VersionedPoolMap map(0x8888ULL, knobs);
  auto dips = make_dips(2);
  ASSERT_TRUE(map.rebuild(VipPool::build(dips, {}, 1), 0.0));
  ASSERT_EQ(map.bucket_count(), 64u);

  std::vector<Ipv4Address> first(2048);
  for (std::uint64_t h = 0; h < first.size(); ++h) first[h] = map.lookup(mix64(h), 0.0);

  for (int k = 0; k < 12; ++k) {  // 2 -> 14 DIPs: crosses the 2x headroom line
    dips.push_back(Ipv4Address{10, 62, 0, static_cast<std::uint8_t>(k + 1)});
    map.rebuild(VipPool::build(dips, {}, 1), 1.0 + k);
    for (std::uint64_t h = 0; h < first.size(); ++h) {
      ASSERT_EQ(map.lookup(mix64(h), 1.0 + k), first[h])
          << "warm flow remapped by an add (regrow " << map.stats().bucket_regrows << ")";
    }
  }
  EXPECT_GT(map.stats().bucket_regrows, 0u);
  EXPECT_GT(map.bucket_count(), 64u);
}

TEST(VersionedMap, MaxVersionsCapForceRetires) {
  stateless::StatelessKnobs knobs;
  knobs.max_versions = 2;
  stateless::VersionedPoolMap map(0x7777ULL, knobs);
  const auto dips = make_dips(6);
  ASSERT_TRUE(map.rebuild(VipPool::build(dips, {}, 1), 0.0));

  for (int k = 0; k < 8; ++k) {
    for (std::uint64_t h = 0; h < 8192; ++h) map.lookup(mix64(h), 0.0);  // stay warm
    std::vector<std::uint32_t> weights(dips.size(), 1);
    weights[static_cast<std::size_t>(k) % dips.size()] = 4;
    map.rebuild(VipPool::build(dips, weights, 1), 0.0);
    ASSERT_LE(map.version_count(), 2u);
  }
  EXPECT_GT(map.stats().forced_adoptions, 0u);
}

// The pinned-bucket bookkeeping (count + drain floor) against brute-force
// rescans of the stamps, through every path that moves a stamp: rebuilds,
// regrows, removed-DIP flips (new-version and no-op), the max_versions
// force-retire, lookup adoptions, mark_all_seen and adopt_drained itself.
TEST(VersionedMap, PinnedBookkeepingMatchesRescanUnderRandomDrive) {
  stateless::StatelessKnobs knobs;
  knobs.drain_idle_us = 50.0;
  knobs.min_buckets = 32;
  knobs.buckets_per_dip = 4;
  knobs.max_versions = 4;
  stateless::VersionedPoolMap map(0x9999ULL, knobs);
  const auto scan_pinned = [&] {
    std::size_t n = 0;
    for (std::size_t b = 0; b < map.bucket_count(); ++b) n += map.stamp(b) != map.newest_epoch();
    return n;
  };
  const auto scan_drained = [&](double now) {
    std::size_t n = 0;
    for (std::size_t b = 0; b < map.bucket_count(); ++b) {
      n += map.stamp(b) != map.newest_epoch() &&
           now - map.last_seen_us(b) >= knobs.drain_idle_us;
    }
    return n;
  };

  Rng rng(19);
  std::vector<Ipv4Address> live = make_dips(3);
  std::vector<Ipv4Address> removed;
  std::uint32_t next_dip = 0;
  ASSERT_TRUE(map.rebuild(VipPool::build(live, {}, 1), 0.0));
  double now = 1.0;
  std::size_t sweeps_flipping = 0;
  std::size_t sweeps_idle_with_pins = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    now += static_cast<double>(rng.uniform(12));
    switch (rng.uniform(8)) {
      case 0: {  // DIP joins (the pool grows past its headroom: regrow)
        if (live.size() >= 40) break;
        live.push_back(Ipv4Address{10, 70, static_cast<std::uint8_t>(next_dip >> 8),
                                   static_cast<std::uint8_t>(next_dip & 255)});
        ++next_dip;
        map.rebuild(VipPool::build(live, {}, 1), now);
        break;
      }
      case 1: {  // DIP leaves: named, its buckets flip at once; else they drain
        if (live.size() <= 2) break;
        const std::size_t victim = static_cast<std::size_t>(rng.uniform(live.size()));
        removed.push_back(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        map.rebuild(VipPool::build(live, {}, 1), now,
                    rng.uniform(2) == 0 ? removed.back() : Ipv4Address{});
        break;
      }
      case 2: {  // re-sync naming a past removal: the no-op build's flips
        if (removed.empty()) break;
        map.rebuild(VipPool::build(live, {}, 1), now,
                    removed[static_cast<std::size_t>(rng.uniform(removed.size()))]);
        break;
      }
      case 3: {  // weight change: recolors without a membership change
        std::vector<std::uint32_t> weights;
        for (std::size_t d = 0; d < live.size(); ++d) {
          weights.push_back(static_cast<std::uint32_t>(1 + rng.uniform(3)));
        }
        map.rebuild(VipPool::build(live, weights, 1), now);
        break;
      }
      case 4:
        map.mark_all_seen(now);
        break;
      case 5: {
        const std::size_t expected = scan_drained(now);
        const std::size_t pinned_before = scan_pinned();
        ASSERT_EQ(map.adopt_drained(now), expected) << "iter " << iter;
        ASSERT_EQ(scan_drained(now), 0u) << "iter " << iter;
        sweeps_flipping += expected > 0;
        sweeps_idle_with_pins += expected == 0 && pinned_before > 0;
        break;
      }
      default:  // traffic, its clock jittered slightly backwards at times
        for (int k = 0; k < 24; ++k) {
          map.lookup(rng(), now - static_cast<double>(rng.uniform(40)));
        }
        break;
    }
    ASSERT_EQ(map.pinned_buckets(), scan_pinned()) << "iter " << iter;
    ASSERT_EQ(map.settled(), scan_pinned() == 0) << "iter " << iter;
  }

  // Every stamp-moving path was exercised.
  const auto& st = map.stats();
  EXPECT_GT(st.bucket_regrows, 0u);
  EXPECT_GT(st.forced_adoptions, 0u);
  EXPECT_GT(st.dead_owner_flips, 0u);
  EXPECT_GT(st.adoptions, 0u);
  EXPECT_GT(st.noop_builds, 0u);
  EXPECT_GT(sweeps_flipping, 0u);
  EXPECT_GT(sweeps_idle_with_pins, 0u);
}

// ---------------------------------------------------------------------------
// Twin-drive PCC: the acceptance scenario
// ---------------------------------------------------------------------------

struct PccOutcome {
  std::uint64_t violations = 0;    // established flow moved off a live DIP
  std::uint64_t legal_remaps = 0;  // moved off a removed DIP (§5.1)
  std::uint64_t fingerprint = 0;   // order-sensitive chain over every decision

  friend bool operator==(const PccOutcome&, const PccOutcome&) = default;
};

// Drives the stateless engine through `updates` randomized DIP updates with
// an oracle tracking every established flow's last DIP. stateless_max_versions
// is 0 (unbounded): the retention guarantee must come from drain stamps
// alone, never be broken by forced retirement.
PccOutcome twin_drive_pcc(std::uint64_t seed, std::size_t updates) {
  DuetConfig cfg;
  cfg.smux_engine = SmuxEngine::kStateless;
  cfg.stateless_max_versions = 0;
  Smux mux(0, FlowHasher{}, cfg);
  Rng rng(seed);

  std::vector<Ipv4Address> live = make_dips(8);
  mux.set_vip(kVip, live);

  constexpr std::size_t kFlows = 128;
  std::vector<Packet> pkts;
  for (std::size_t i = 0; i < kFlows; ++i) {
    pkts.emplace_back(flow_tuple(i, static_cast<std::uint16_t>(1024 + rng.uniform(60000))),
                      64u);
  }
  std::vector<Ipv4Address> out(kFlows);
  double now = 0.0;
  PccOutcome oc;
  const auto replay = [&] {
    mux.process_batch({pkts.data(), kFlows}, {out.data(), kFlows}, now);
    now += static_cast<double>(kFlows);  // 1 µs per packet, far below drain idle
    for (const Ipv4Address d : out) {
      oc.fingerprint =
          mix64(oc.fingerprint ^ (static_cast<std::uint64_t>(d.value()) + 0x9e3779b9ULL));
    }
  };
  const auto is_live = [&](Ipv4Address d) {
    return std::find(live.begin(), live.end(), d) != live.end();
  };

  std::vector<Ipv4Address> expected(kFlows);
  replay();
  for (std::size_t i = 0; i < kFlows; ++i) expected[i] = out[i];

  std::size_t next_added = 0;
  for (std::size_t u = 0; u < updates; ++u) {
    std::uint64_t kind = rng.uniform(3);
    if (kind == 1 && live.size() <= 2) kind = 0;
    if (kind == 0) {
      const Ipv4Address dip{10, 51, static_cast<std::uint8_t>(next_added >> 8),
                            static_cast<std::uint8_t>(next_added & 255)};
      ++next_added;
      mux.add_dip(kVip, dip);
      live.push_back(dip);
    } else if (kind == 1) {
      const std::size_t victim = static_cast<std::size_t>(rng.uniform(live.size()));
      mux.remove_dip(kVip, live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      std::vector<std::uint32_t> weights;
      for (std::size_t d = 0; d < live.size(); ++d) {
        weights.push_back(static_cast<std::uint32_t>(1 + rng.uniform(4)));
      }
      mux.set_vip(kVip, live, weights);
    }

    replay();
    for (std::size_t i = 0; i < kFlows; ++i) {
      if (!is_live(out[i])) {
        ++oc.violations;  // decided toward a dead DIP: always wrong
      } else if (out[i] != expected[i]) {
        if (is_live(expected[i])) {
          ++oc.violations;  // moved while its DIP was still alive: PCC break
        } else {
          ++oc.legal_remaps;
        }
      }
      expected[i] = out[i];
    }
  }
  return oc;
}

TEST(StatelessPcc, TwinDriveThousandUpdatesZeroViolations) {
  const PccOutcome oc = twin_drive_pcc(20140817, 1000);
  EXPECT_EQ(oc.violations, 0u);
  EXPECT_GT(oc.legal_remaps, 0u);  // removals did happen and were §5.1-legal
}

TEST(StatelessPcc, SweepWidthOneAndNBitForBit) {
  const auto run = [](std::size_t width) {
    exec::ThreadPool pool(width);
    exec::SweepOptions options;
    options.pool = &pool;
    options.seed = 99;
    auto result = exec::sweep(3, options, [](exec::ShardContext& ctx) {
      return twin_drive_pcc(ctx.seed, 150);
    });
    return std::move(result.results);
  };
  const auto serial = run(1);
  const auto wide = run(4);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s], wide[s]) << "shard " << s << " diverged across widths";
    EXPECT_EQ(serial[s].violations, 0u);
  }
}

// ---------------------------------------------------------------------------
// SYN flood
// ---------------------------------------------------------------------------

TEST(StatelessFlood, StatelessImmuneStatefulExhausted) {
  // Eight rounds of distinct spoofed tuples over a churning pool, at the
  // default version retention (not the chaos suite's unbounded setting).
  constexpr std::uint64_t kSeed = 0xf100d;
  chaos::ChaosEnv env;
  env.ticks = 9;  // 8 flood/churn rounds + the final keepalive pass
  env.unbounded_versions = false;
  env.traffic_seed = kSeed;
  chaos::SynFloodParams syn;
  syn.end_tick = 8;
  chaos::RandomChurnParams churn;
  churn.end_tick = 9;
  const chaos::ChaosReport r = chaos::run_chaos(
      chaos::compose_plan("flood", env,
                          {chaos::syn_flood(syn, env, kSeed),
                           chaos::random_churn(churn, env, mix64(kSeed ^ 0x9e3779b97f4a7c15ULL))}),
      DuetConfig{});

  EXPECT_EQ(r.stateless.pcc_violations, 0u);
  EXPECT_EQ(r.stateless.evictions, 0u);
  EXPECT_EQ(r.stateless.flow_entries_peak, 0u);
  EXPECT_EQ(r.stateless.flow_entries_end, 0u);

  // The same plan exhausts the stateful table: cap shedding, lost pins.
  EXPECT_GT(r.stateful.evictions, 0u);
  EXPECT_GT(r.stateful.pcc_violations, 0u);
  EXPECT_EQ(r.stateful.flow_entries_peak, env.flow_table_cap);
  EXPECT_EQ(r.stateful.packets, r.stateless.packets);
}

// ---------------------------------------------------------------------------
// Engine selection and dispatch
// ---------------------------------------------------------------------------

TEST(EngineSelect, ParseAndToString) {
  SmuxEngine e = SmuxEngine::kStateful;
  EXPECT_TRUE(parse_smux_engine("stateless", &e));
  EXPECT_EQ(e, SmuxEngine::kStateless);
  EXPECT_TRUE(parse_smux_engine("stateful", &e));
  EXPECT_EQ(e, SmuxEngine::kStateful);
  EXPECT_FALSE(parse_smux_engine("othello", &e));
  EXPECT_STREQ(to_string(SmuxEngine::kStateless), "stateless");
  EXPECT_STREQ(to_string(SmuxEngine::kStateful), "stateful");
}

TEST(EngineSelect, GlobalKnobRoutesAllVipsStateless) {
  DuetConfig cfg;
  cfg.smux_engine = SmuxEngine::kStateless;
  Smux mux(0, FlowHasher{}, cfg);
  mux.set_vip(kVip, make_dips(4));
  ASSERT_NE(mux.stateless_engine(), nullptr);

  std::vector<Packet> pkts;
  for (std::size_t i = 0; i < 256; ++i) pkts.emplace_back(flow_tuple(i), 64u);
  std::vector<Ipv4Address> out(pkts.size());
  EXPECT_EQ(mux.process_batch({pkts.data(), pkts.size()}, {out.data(), out.size()}, 0.0),
            pkts.size());
  EXPECT_EQ(mux.flow_table_size(), 0u);  // no pins, ever
  for (const Ipv4Address d : out) EXPECT_NE(d, Ipv4Address{});
}

TEST(EngineSelect, PerVipOverrideAndClear) {
  Smux mux(0, FlowHasher{}, DuetConfig{});  // stateful default
  mux.set_vip(kVip, make_dips(4));
  EXPECT_EQ(mux.engine_for(kVip), SmuxEngine::kStateful);

  mux.set_engine_override(kVip, SmuxEngine::kStateless);
  EXPECT_EQ(mux.engine_for(kVip), SmuxEngine::kStateless);
  ASSERT_NE(mux.stateless_engine(), nullptr);

  std::vector<Packet> pkts;
  for (std::size_t i = 0; i < 64; ++i) pkts.emplace_back(flow_tuple(i), 64u);
  std::vector<Ipv4Address> out(pkts.size());
  mux.process_batch({pkts.data(), pkts.size()}, {out.data(), out.size()}, 0.0);
  EXPECT_EQ(mux.flow_table_size(), 0u);

  // Cleared: the same flows now pin through the stateful engine.
  EXPECT_TRUE(mux.clear_engine_override(kVip));
  EXPECT_FALSE(mux.clear_engine_override(kVip));
  EXPECT_EQ(mux.engine_for(kVip), SmuxEngine::kStateful);
  mux.process_batch({pkts.data(), pkts.size()}, {out.data(), out.size()}, 1.0);
  EXPECT_EQ(mux.flow_table_size(), pkts.size());
}

TEST(EngineSelect, PortRulePoolsDecideStatelessly) {
  DuetConfig cfg;
  cfg.smux_engine = SmuxEngine::kStateless;
  Smux mux(0, FlowHasher{}, cfg);
  const auto vip_dips = make_dips(4, 50);
  const auto port_dips = make_dips(4, 70);
  mux.set_vip(kVip, vip_dips);
  mux.set_port_rule(kVip, 443, port_dips);

  for (std::size_t i = 0; i < 128; ++i) {
    FiveTuple to443 = flow_tuple(i);
    to443.dst_port = 443;
    Packet a{flow_tuple(i), 64u};
    Packet b{to443, 64u};
    Ipv4Address da, db;
    mux.process_batch({&a, 1}, {&da, 1}, 0.0);
    mux.process_batch({&b, 1}, {&db, 1}, 0.0);
    EXPECT_TRUE(std::find(vip_dips.begin(), vip_dips.end(), da) != vip_dips.end());
    EXPECT_TRUE(std::find(port_dips.begin(), port_dips.end(), db) != port_dips.end());
  }
  EXPECT_EQ(mux.flow_table_size(), 0u);
}

// Two replicas (different mux ids) must agree on every decision: the pool
// salt is recovered from the pool id, never from per-replica state.
TEST(EngineSelect, ReplicasAgreeBitForBit) {
  DuetConfig cfg;
  cfg.smux_engine = SmuxEngine::kStateless;
  Smux a(0, FlowHasher{}, cfg);
  Smux b(7, FlowHasher{}, cfg);
  for (Smux* m : {&a, &b}) {
    m->set_vip(kVip, make_dips(8));
    m->set_port_rule(kVip, 8080, make_dips(3, 70));
  }
  for (std::size_t i = 0; i < 512; ++i) {
    FiveTuple t = flow_tuple(i);
    if (i % 3 == 0) t.dst_port = 8080;
    Packet pa{t, 64u}, pb{t, 64u};
    Ipv4Address da, db;
    a.process_batch({&pa, 1}, {&da, 1}, 0.0);
    b.process_batch({&pb, 1}, {&db, 1}, 0.0);
    EXPECT_EQ(da, db) << "replica disagreement at flow " << i;
  }
}

TEST(EngineSelect, BatchedAndSingleDecisionsMatch) {
  DuetConfig cfg;
  cfg.smux_engine = SmuxEngine::kStateless;
  Smux batched(0, FlowHasher{}, cfg);
  Smux single(0, FlowHasher{}, cfg);
  batched.set_vip(kVip, make_dips(8));
  single.set_vip(kVip, make_dips(8));

  std::vector<Packet> pkts;
  for (std::size_t i = 0; i < 300; ++i) pkts.emplace_back(flow_tuple(i), 64u);
  std::vector<Ipv4Address> wide(pkts.size());
  batched.process_batch({pkts.data(), pkts.size()}, {wide.data(), wide.size()}, 5.0);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    Ipv4Address one;
    single.process_batch({&pkts[i], 1}, {&one, 1}, 5.0);
    EXPECT_EQ(one, wide[i]);
  }
}

// ---------------------------------------------------------------------------
// Memory and telemetry
// ---------------------------------------------------------------------------

TEST(StatelessMemory, FlatInFlowsLinearForStateful) {
  const auto drive_flows = [](Smux& mux, std::size_t n) {
    std::vector<Packet> batch;
    std::vector<Ipv4Address> out(256);
    for (std::size_t at = 0; at < n;) {
      batch.clear();
      const std::size_t m = std::min<std::size_t>(256, n - at);
      for (std::size_t k = 0; k < m; ++k) batch.emplace_back(flow_tuple(at + k), 64u);
      mux.process_batch({batch.data(), m}, {out.data(), m}, 0.0);
      at += m;
    }
  };

  DuetConfig sl_cfg;
  sl_cfg.smux_engine = SmuxEngine::kStateless;
  Smux sl_small(0, FlowHasher{}, sl_cfg);
  Smux sl_big(0, FlowHasher{}, sl_cfg);
  sl_small.set_vip(kVip, make_dips(8));
  sl_big.set_vip(kVip, make_dips(8));
  drive_flows(sl_small, 1'000);
  drive_flows(sl_big, 64'000);
  EXPECT_EQ(sl_small.decision_state_bytes(), sl_big.decision_state_bytes());

  DuetConfig sf_cfg;
  sf_cfg.smux_flow_idle_us = 0.0;
  sf_cfg.smux_flow_table_max = 0;
  Smux sf_small(0, FlowHasher{}, sf_cfg);
  Smux sf_big(0, FlowHasher{}, sf_cfg);
  sf_small.set_vip(kVip, make_dips(8));
  sf_big.set_vip(kVip, make_dips(8));
  drive_flows(sf_small, 1'000);
  drive_flows(sf_big, 64'000);
  EXPECT_GE(sf_big.decision_state_bytes(), sf_small.decision_state_bytes() * 16);
}

TEST(StatelessTelemetry, CountersFlushPerBatch) {
  telemetry::MetricRegistry registry;
  DuetConfig cfg;
  cfg.smux_engine = SmuxEngine::kStateless;
  Smux mux(9, FlowHasher{}, cfg);
  mux.bind_telemetry(registry, "duet.smux.9.");
  mux.set_vip(kVip, make_dips(4));

  std::vector<Packet> pkts;
  for (std::size_t i = 0; i < 200; ++i) pkts.emplace_back(flow_tuple(i), 64u);
  std::vector<Ipv4Address> out(pkts.size());
  mux.process_batch({pkts.data(), pkts.size()}, {out.data(), out.size()}, 0.0);

  EXPECT_EQ(registry.counter("duet.smux.9.stateless.lookups").value(), 200u);
  EXPECT_EQ(registry.counter("duet.smux.9.flow_pins").value(), 0u);
  EXPECT_GT(registry.gauge("duet.smux.9.stateless.state_bytes").value(), 0.0);
  EXPECT_GE(registry.gauge("duet.smux.9.stateless.versions_retained").value(), 1.0);
  EXPECT_EQ(registry.gauge("duet.smux.9.stateless.pools").value(), 1.0);

  mux.remove_dip(kVip, make_dips(4)[0]);
  mux.process_batch({pkts.data(), pkts.size()}, {out.data(), out.size()}, 1.0);
  EXPECT_GE(registry.counter("duet.smux.9.stateless.version_builds").value(), 2u);
}

}  // namespace
}  // namespace duet
