#include "duet/fast_tier.h"

#include <algorithm>
#include <thread>

#include "duet/smux.h"
#include "stateless/stateless_engine.h"

namespace duet {

namespace {

// Collision handling is grow-and-retry: a direct-mapped probe must stay one
// read, so the builder buys collision-freedom with slots, not chains. Past
// this cap the colliding tail simply stays cold (a miss, never a wrong
// answer).
constexpr std::size_t kMaxSlots = std::size_t{1} << 20;

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

std::size_t FastTierTable::build(const std::vector<Entry>& entries) {
  if (entries.empty()) {
    pinned_.clear();
    admitted_.clear();
    dip_slots_ = 0;
    slots_.assign(1, Slot{});
    slot_mask_ = 0;
    return 0;
  }

  std::size_t dropped = 0;
  for (std::size_t size = std::max<std::size_t>(8, next_pow2(entries.size() * 2));;
       size <<= 1) {
    slots_.assign(size, Slot{});
    slot_mask_ = size - 1;
    pinned_.clear();
    admitted_.clear();
    dip_slots_ = 0;
    dropped = 0;
    for (const Entry& e : entries) {
      Slot& s = slots_[slot_probe(e.vip) & slot_mask_];
      if (s.vip != 0) {
        ++dropped;
        continue;
      }
      s.vip = e.vip;
      s.mask = e.mask;
      s.salt = e.salt;
      s.dips = e.owner->data();
      s.epoch = e.epoch;
      pinned_.push_back(e.owner);  // keeps s.dips valid for this table's life
      admitted_.push_back(e.vip);
      dip_slots_ += e.owner->size();
    }
    if (dropped == 0 || size >= kMaxSlots) break;
  }
  return dropped;
}

FastTier::FastTier(std::size_t readers)
    : current_(&buffers_[0]), hazards_(std::max<std::size_t>(1, readers)) {}

void FastTier::wait_unreferenced(const FastTierTable* retired) const noexcept {
  // Pairs with the seq_cst store/re-load in acquire(): the swap that
  // preceded this scan and these loads are seq_cst, so either this scan
  // sees the reader's hazard, or the reader's re-check sees the new current.
  for (const Hazard& h : hazards_) {
    while (h.ptr.load(std::memory_order_seq_cst) == retired) {
      std::this_thread::yield();
    }
  }
}

FastTier::RebuildStats FastTier::install(const std::vector<FastTierTable::Entry>& entries) {
  const FastTierTable* cur = current_.load(std::memory_order_acquire);
  FastTierTable& spare = (cur == &buffers_[0]) ? buffers_[1] : buffers_[0];
  // The spare was drained when it was retired; re-checking is O(readers).
  wait_unreferenced(&spare);
  RebuildStats stats;
  stats.rejected_collision = spare.build(entries);
  stats.admitted = spare.vip_count();
  stats.dip_slots = spare.dip_slots();
  current_.store(&spare, std::memory_order_release);
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  // Drain the retired buffer so the NEXT install may rebuild into it.
  wait_unreferenced(cur);
  return stats;
}

FastTier::RebuildStats FastTier::rebuild(Smux& smux, double now_us) {
  RebuildStats out;
  stateless::StatelessEngine* engine = smux.stateless_engine();
  const FastTierTable& prev = *current_.load(std::memory_order_acquire);

  // VIPs carrying (vip, port) ACL rules are never admitted: the fast tier
  // resolves pools by destination address alone.
  std::vector<std::uint32_t> port_vips;
  smux.for_each_port_rule([&](std::uint64_t pool_id, const VipPool&) {
    port_vips.push_back(static_cast<std::uint32_t>(pool_id >> 16));
  });

  std::vector<FastTierTable::Entry> entries;
  smux.for_each_vip([&](Ipv4Address vip, const VipPool&) {
    if (engine == nullptr || smux.engine_for(vip) != SmuxEngine::kStateless) {
      ++out.rejected_engine;  // stateful pins are invisible to a snapshot
      return;
    }
    if (std::find(port_vips.begin(), port_vips.end(), vip.value()) != port_vips.end()) {
      ++out.rejected_port_rule;
      return;
    }
    auto* map = engine->mutable_pool_map(vip_pool_id(vip));
    if (map == nullptr || !map->built()) {
      ++out.rejected_unsettled;
      return;
    }
    // Traffic served by the fast tier never touched the map's drain clock,
    // so a pool it was serving that has since been re-colored must presume
    // every bucket live as of now — otherwise a stale last-seen would let a
    // bucket adopt the new version under a connection the fast tier was
    // still serving (PCC).
    if (!map->settled() && prev.admits(vip)) map->mark_all_seen(now_us);
    // Flip buckets whose drain already expired, so an idle pool re-settles
    // here instead of waiting for one packet per bucket.
    map->adopt_drained(now_us);
    if (!map->settled()) {
      ++out.rejected_unsettled;  // draining: decisions still time-dependent
      return;
    }
    entries.push_back(FastTierTable::Entry{vip.value(), map->salt(),
                                           static_cast<std::uint32_t>(map->bucket_mask()),
                                           map->newest_epoch(), map->newest_owner()});
  });

  const RebuildStats installed = install(entries);
  out.admitted = installed.admitted;
  out.rejected_collision = installed.rejected_collision;
  out.dip_slots = installed.dip_slots;

  // The same presumption for every other pool this build drops (a new port
  // rule, an engine switch, a slot collision): the map decides its flows
  // from now on. `prev` is the retired buffer; only the next rebuild (this
  // thread) overwrites it.
  if (engine != nullptr) {
    const FastTierTable& next = *current_.load(std::memory_order_acquire);
    for (const std::uint32_t vip : prev.admitted()) {
      if (next.admits(Ipv4Address{vip})) continue;
      auto* map = engine->mutable_pool_map(vip_pool_id(Ipv4Address{vip}));
      if (map != nullptr) map->mark_all_seen(now_us);
    }
  }
  return out;
}

}  // namespace duet
