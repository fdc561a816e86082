// In-process HMux fast tier (DESIGN.md §17): bit-identity with the stateless
// engine across sustained churn, the hazard-pointer swap protocol under
// concurrent readers, and the admission taxonomy (what must stay cold).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "duet/config.h"
#include "duet/fast_tier.h"
#include "duet/smux.h"
#include "net/hash.h"
#include "net/packet.h"
#include "stateless/stateless_engine.h"
#include "util/random.h"

namespace duet {
namespace {

constexpr Ipv4Address kVip{100, 0, 0, 1};
constexpr Ipv4Address kRuleVip{100, 0, 1, 1};

std::vector<Ipv4Address> make_dips(std::size_t n, std::uint8_t net = 50) {
  std::vector<Ipv4Address> dips;
  for (std::size_t d = 0; d < n; ++d) {
    dips.push_back(Ipv4Address{10, net, static_cast<std::uint8_t>((d >> 8) & 255),
                               static_cast<std::uint8_t>(d & 255)});
  }
  return dips;
}

FiveTuple flow_tuple(std::size_t i, Ipv4Address dst = kVip) {
  return FiveTuple{Ipv4Address{10, 1, static_cast<std::uint8_t>((i >> 8) & 255),
                               static_cast<std::uint8_t>(i & 255)},
                   dst, static_cast<std::uint16_t>(1024 + i % 60000), 80, IpProto::kTcp};
}

// ---------------------------------------------------------------------------
// Twin drive: 1000 epochs of churn + rebuilds, every admitted answer must be
// bit-identical to the stateless engine's decision for the same packet.
// ---------------------------------------------------------------------------

TEST(FastTier, TwinDriveBitIdenticalAcross1000Epochs) {
  DuetConfig cfg;
  cfg.smux_engine = SmuxEngine::kStateless;
  cfg.stateless_drain_idle_us = 50.0;  // drains settle between epochs
  const FlowHasher hasher{};
  Smux mux(0, hasher, cfg);

  mux.set_vip(kVip, make_dips(4));
  // A port-rule VIP rides along the whole drive: it must never be admitted.
  mux.set_vip(kRuleVip, make_dips(4, 60));
  mux.set_port_rule(kRuleVip, 443, make_dips(2, 61));

  constexpr std::size_t kFlows = 96;
  std::vector<Packet> pkts;
  std::vector<FiveTuple> tuples;
  for (std::size_t i = 0; i < kFlows; ++i) {
    tuples.push_back(flow_tuple(i));
    pkts.emplace_back(tuples.back(), 64u);
  }
  std::vector<Ipv4Address> engine_out(kFlows);

  FastTier fast{1};
  const Ipv4Address churn_dip{10, 50, 9, 9};
  bool churn_in = false;
  std::size_t admitted_epochs = 0;
  std::size_t compared = 0;

  for (std::size_t epoch = 0; epoch < 1000; ++epoch) {
    const double now = static_cast<double>(epoch) * 100.0;
    // Mutate the hot pool every epoch: the map re-colors, drains, and the
    // rebuild must only re-admit once it has settled again.
    if (churn_in) {
      mux.remove_dip(kVip, churn_dip);
    } else {
      mux.add_dip(kVip, churn_dip);
    }
    churn_in = !churn_in;

    const FastTier::RebuildStats stats = fast.rebuild(mux, now);
    EXPECT_EQ(stats.rejected_port_rule, 1u) << "epoch " << epoch;

    const FastTierTable* table = fast.acquire(0);
    ASSERT_NE(table, nullptr);
    EXPECT_FALSE(table->admits(kRuleVip)) << "epoch " << epoch;
    EXPECT_EQ(table->lookup(kRuleVip.value(), hasher.hash(flow_tuple(7, kRuleVip))),
              nullptr)
        << "epoch " << epoch;

    if (table->admits(kVip)) {
      ++admitted_epochs;
      mux.process_batch({pkts.data(), kFlows}, {engine_out.data(), kFlows}, now);
      for (std::size_t i = 0; i < kFlows; ++i) {
        const Ipv4Address* dip = table->lookup(kVip.value(), hasher.hash(tuples[i]));
        ASSERT_NE(dip, nullptr) << "epoch " << epoch << " flow " << i;
        ASSERT_EQ(*dip, engine_out[i]) << "epoch " << epoch << " flow " << i;
        ++compared;
      }
    }
    fast.release(0);
  }

  // Non-vacuous: churn + settle must actually re-admit most epochs.
  EXPECT_GT(admitted_epochs, 500u);
  EXPECT_GT(compared, 500u * kFlows / 2);
  EXPECT_GE(fast.rebuilds(), 1000u);
}

// ---------------------------------------------------------------------------
// Swap protocol: readers looking up concurrently with installs must only ever
// observe a fully built table (run under TSan to check the hazard protocol).
// ---------------------------------------------------------------------------

TEST(FastTier, ConcurrentLookupsDuringSwapsStayCoherent) {
  constexpr std::size_t kReaders = 3;
  constexpr std::uint32_t kMask = 63;
  FastTier fast{kReaders};

  const Ipv4Address dip_a{10, 70, 0, 1};
  const Ipv4Address dip_b{10, 70, 0, 2};
  const auto owner_a = std::make_shared<const std::vector<Ipv4Address>>(kMask + 1, dip_a);
  const auto owner_b = std::make_shared<const std::vector<Ipv4Address>>(kMask + 1, dip_b);
  using Owner = std::shared_ptr<const std::vector<Ipv4Address>>;
  const auto entries_for = [&](const Owner& owner, std::uint32_t epoch) {
    FastTierTable::Entry e;
    e.vip = kVip.value();
    e.salt = 0x5a17ULL;
    e.mask = kMask;
    e.epoch = epoch;
    e.owner = owner;
    return std::vector<FastTierTable::Entry>{e};
  };

  ASSERT_EQ(fast.install(entries_for(owner_a, 1)).admitted, 1u);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL * (r + 1);
      // do-while: at least one lookup per reader even if the builder's 2000
      // installs complete before this thread is first scheduled (1-CPU box).
      do {
        const FastTierTable* table = fast.acquire(r);
        const Ipv4Address* dip = table->lookup(kVip.value(), h);
        ASSERT_NE(dip, nullptr);
        // Whichever buffer we pinned, the answer comes from a complete
        // snapshot: always one of the two installed colorings, never a
        // half-built mix observed as garbage.
        const Ipv4Address got = *dip;
        ASSERT_TRUE(got == dip_a || got == dip_b);
        fast.release(r);
        h = mix64(h);
        hits.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  for (std::uint32_t swap = 0; swap < 2000; ++swap) {
    const bool use_a = (swap & 1) == 0;
    const FastTier::RebuildStats stats =
        fast.install(entries_for(use_a ? owner_a : owner_b, swap + 2));
    ASSERT_EQ(stats.admitted, 1u);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(hits.load(), 0u);
  EXPECT_GE(fast.rebuilds(), 2001u);
}

// ---------------------------------------------------------------------------
// Admission taxonomy: only plain, settled, stateless VIPs get hot; everything
// else must miss (fall through to the full pipeline), never answer wrongly.
// ---------------------------------------------------------------------------

TEST(FastTier, FallthroughForPortRuleAndStatefulVips) {
  DuetConfig cfg;
  cfg.smux_engine = SmuxEngine::kStateless;
  const FlowHasher hasher{};
  Smux mux(0, hasher, cfg);

  const Ipv4Address stateful_vip{100, 0, 2, 1};
  mux.set_vip(kVip, make_dips(4));
  mux.set_vip(kRuleVip, make_dips(4, 60));
  mux.set_port_rule(kRuleVip, 443, make_dips(2, 61));
  mux.set_vip(stateful_vip, make_dips(4, 62));
  mux.set_engine_override(stateful_vip, SmuxEngine::kStateful);

  FastTier fast{1};
  const FastTier::RebuildStats stats = fast.rebuild(mux, /*now_us=*/1.0);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.rejected_port_rule, 1u);
  EXPECT_EQ(stats.rejected_engine, 1u);
  EXPECT_EQ(stats.rejected_unsettled, 0u);
  EXPECT_EQ(stats.rejected_collision, 0u);

  const FastTierTable* table = fast.acquire(0);
  ASSERT_EQ(table->admitted().size(), 1u);
  EXPECT_EQ(table->admitted()[0], kVip.value());
  EXPECT_TRUE(table->admits(kVip));
  EXPECT_FALSE(table->admits(kRuleVip));
  EXPECT_FALSE(table->admits(stateful_vip));

  // Cold VIPs miss for every flow — including the port that has no rule on
  // the rule VIP (admission is per-VIP, not per-port).
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(table->lookup(kRuleVip.value(), hasher.hash(flow_tuple(i, kRuleVip))),
              nullptr);
    EXPECT_EQ(table->lookup(stateful_vip.value(), hasher.hash(flow_tuple(i, stateful_vip))),
              nullptr);
  }
  // The hot VIP answers, bit-identical to the engine.
  std::vector<Packet> pkts;
  std::vector<FiveTuple> tuples;
  for (std::size_t i = 0; i < 64; ++i) {
    tuples.push_back(flow_tuple(i));
    pkts.emplace_back(tuples.back(), 64u);
  }
  std::vector<Ipv4Address> out(tuples.size());
  mux.process_batch({pkts.data(), pkts.size()}, {out.data(), out.size()}, 1.0);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const Ipv4Address* dip = table->lookup(kVip.value(), hasher.hash(tuples[i]));
    ASSERT_NE(dip, nullptr);
    EXPECT_EQ(*dip, out[i]);
  }
  fast.release(0);
}

// ---------------------------------------------------------------------------
// The PCC presumption at the edges: a rebuild marks an admitted pool's
// buckets seen only when the pool goes unsettled or is dropped. A twin that
// marks every admitted pool before every rebuild (the conservative rule)
// must decide every packet identically — the tier deciding what it admits,
// the engine the rest, as MuxServer does.
// ---------------------------------------------------------------------------

struct TwinReplica {
  explicit TwinReplica(const DuetConfig& cfg) : mux(0, FlowHasher{}, cfg) {}
  Smux mux;
  FastTier fast{1};
};

TEST(FastTier, MarkingOnlyDroppedPoolsDecidesLikeMarkingEveryRebuild) {
  DuetConfig cfg;
  cfg.smux_engine = SmuxEngine::kStateless;
  cfg.stateless_drain_idle_us = 300.0;
  const FlowHasher hasher{};
  TwinReplica edge(cfg);  // marks on unsettle/drop only (FastTier::rebuild)
  TwinReplica every(cfg);  // also marks every admitted pool before each rebuild

  constexpr std::size_t kVips = 6;
  std::vector<Ipv4Address> vips;
  std::vector<std::vector<Ipv4Address>> pools;
  for (std::size_t v = 0; v < kVips; ++v) {
    vips.push_back(Ipv4Address{100, 0, static_cast<std::uint8_t>(v), 1});
    pools.push_back(make_dips(4, static_cast<std::uint8_t>(50 + v)));
  }
  const auto both = [&](const auto& op) {
    op(edge.mux);
    op(every.mux);
  };
  for (std::size_t v = 0; v < kVips; ++v) both([&](Smux& m) { m.set_vip(vips[v], pools[v]); });

  // A fixed flow population, so the same connections recur across steps.
  constexpr std::size_t kFlows = 384;
  std::vector<FiveTuple> tuples;
  for (std::size_t i = 0; i < kFlows; ++i) tuples.push_back(flow_tuple(i, vips[i % kVips]));

  std::size_t tier_hits = 0;
  std::size_t engine_decided = 0;
  const auto decide = [&](TwinReplica& r, const std::vector<std::size_t>& batch, double now) {
    std::vector<Ipv4Address> out(batch.size());
    std::vector<Packet> miss;
    std::vector<std::size_t> miss_at;
    const FastTierTable* table = r.fast.acquire(0);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const FiveTuple& t = tuples[batch[k]];
      if (const Ipv4Address* dip = table->lookup(t.dst.value(), hasher.hash(t))) {
        out[k] = *dip;
      } else {
        miss.emplace_back(t, 64u);
        miss_at.push_back(k);
      }
    }
    r.fast.release(0);
    std::vector<Ipv4Address> miss_out(miss.size());
    r.mux.process_batch({miss.data(), miss.size()}, {miss_out.data(), miss_out.size()}, now);
    for (std::size_t j = 0; j < miss.size(); ++j) out[miss_at[j]] = miss_out[j];
    tier_hits += batch.size() - miss.size();
    engine_decided += miss.size();
    return out;
  };

  Rng rng(23);
  std::uint32_t next_dip = 0;
  std::size_t admitted_steps = 0;
  std::size_t drops = 0;
  double now = 0.0;
  for (int step = 0; step < 1500; ++step) {
    now += static_cast<double>(1 + rng.uniform(60));
    const std::size_t v = static_cast<std::size_t>(rng.uniform(kVips));
    const Ipv4Address vip = vips[v];
    std::uint64_t kind = rng.uniform(8);
    if (kind < 4 && !edge.mux.has_vip(vip)) kind = 7;  // needs a live VIP: traffic only
    switch (kind) {
      case 0: {
        const Ipv4Address dip{10, 90, static_cast<std::uint8_t>(next_dip >> 8),
                              static_cast<std::uint8_t>(next_dip & 255)};
        ++next_dip;
        pools[v].push_back(dip);
        both([&](Smux& m) { m.add_dip(vip, dip); });
        break;
      }
      case 1: {
        if (pools[v].size() <= 2) break;
        const Ipv4Address dip = pools[v].front();
        pools[v].erase(pools[v].begin());
        both([&](Smux& m) { m.remove_dip(vip, dip); });
        break;
      }
      case 2:  // a port rule drops the VIP from the tier; later removed
        if (rng.uniform(2) == 0) {
          both([&](Smux& m) { m.set_port_rule(vip, 443, make_dips(2, 61)); });
        } else {
          both([&](Smux& m) { m.remove_port_rule(vip, 443); });
        }
        break;
      case 3:  // an engine switch drops it too
        if (rng.uniform(2) == 0) {
          both([&](Smux& m) { m.set_engine_override(vip, SmuxEngine::kStateful); });
        } else {
          both([&](Smux& m) { m.clear_engine_override(vip); });
        }
        break;
      case 4:  // the VIP leaves, and comes back fresh a later step
        if (edge.mux.has_vip(vip)) {
          both([&](Smux& m) { m.remove_vip(vip); });
        } else {
          both([&](Smux& m) { m.set_vip(vip, pools[v]); });
        }
        break;
      default:  // traffic only
        break;
    }

    const std::size_t admitted_before = edge.fast.current()->vip_count();
    edge.fast.rebuild(edge.mux, now);
    for (const std::uint32_t a : every.fast.current()->admitted()) {
      auto* map = every.mux.stateless_engine()->mutable_pool_map(vip_pool_id(Ipv4Address{a}));
      if (map != nullptr) map->mark_all_seen(now);
    }
    every.fast.rebuild(every.mux, now);
    std::vector<std::uint32_t> ea = edge.fast.current()->admitted();
    std::vector<std::uint32_t> va = every.fast.current()->admitted();
    std::sort(ea.begin(), ea.end());
    std::sort(va.begin(), va.end());
    ASSERT_EQ(ea, va) << "step " << step;
    admitted_steps += !ea.empty();
    drops += ea.size() < admitted_before;

    std::vector<std::size_t> batch;
    for (int k = 0; k < 48; ++k) batch.push_back(static_cast<std::size_t>(rng.uniform(kFlows)));
    ASSERT_EQ(decide(edge, batch, now), decide(every, batch, now)) << "step " << step;
  }
  // Non-vacuous: both deciders carried real traffic, and pools were dropped.
  EXPECT_GT(admitted_steps, 300u);
  EXPECT_GT(drops, 25u);
  EXPECT_GT(tier_hits, 5000u);
  EXPECT_GT(engine_decided, 10000u);
}

// A flow the tier was serving, its VIP then dropped by a new port rule and
// re-colored by a DIP join: the engine now decides it, and must keep the
// DIP the tier gave it until the bucket really drains (PCC). The tier's
// traffic never stamped the map, so only the drop-time mark protects it.
TEST(FastTier, PortRuleDropThenDipChangeKeepsServedFlows) {
  DuetConfig cfg;
  cfg.smux_engine = SmuxEngine::kStateless;
  cfg.stateless_drain_idle_us = 1000.0;
  const FlowHasher hasher{};
  Smux mux(0, hasher, cfg);
  mux.set_vip(kVip, make_dips(4));
  FastTier fast{1};
  ASSERT_EQ(fast.rebuild(mux, 0.0).admitted, 1u);

  // Served from the tier long after the map's own clock last moved.
  constexpr std::size_t kFlows = 512;
  std::vector<Packet> pkts;
  std::vector<Ipv4Address> served;
  const FastTierTable* table = fast.acquire(0);
  for (std::size_t i = 0; i < kFlows; ++i) {
    pkts.emplace_back(flow_tuple(i), 64u);
    const Ipv4Address* dip = table->lookup(kVip.value(), hasher.hash(flow_tuple(i)));
    ASSERT_NE(dip, nullptr);
    served.push_back(*dip);
  }
  fast.release(0);

  mux.set_port_rule(kVip, 443, make_dips(2, 61));  // flows here go to port 80
  EXPECT_EQ(fast.rebuild(mux, 10000.0).rejected_port_rule, 1u);
  mux.add_dip(kVip, Ipv4Address{10, 50, 9, 9});
  fast.rebuild(mux, 10010.0);
  ASSERT_FALSE(fast.current()->admits(kVip));

  const stateless::VersionedPoolMap* map =
      mux.stateless_engine()->pool_map(vip_pool_id(kVip));
  ASSERT_NE(map, nullptr);
  std::size_t recolored = 0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    recolored += map->stamp(map->bucket_of(hasher.hash(flow_tuple(i)))) != map->newest_epoch();
  }
  ASSERT_GT(recolored, 0u) << "the DIP join re-colored none of the served flows";

  std::vector<Ipv4Address> out(kFlows);
  mux.process_batch({pkts.data(), kFlows}, {out.data(), kFlows}, 10020.0);
  for (std::size_t i = 0; i < kFlows; ++i) {
    ASSERT_EQ(out[i], served[i]) << "flow " << i << " remapped after the tier dropped its VIP";
  }
}

}  // namespace
}  // namespace duet
