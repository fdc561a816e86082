#include "stateless/versioned_map.h"

#include <algorithm>

#include "util/logging.h"

namespace duet::stateless {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Per-(DIP, replica) rendezvous key. Keyed on the DIP ADDRESS and the
// replica ordinal within that DIP — never on the global slot index — so a
// weight change on one DIP shifts no other DIP's keys and the coloring
// moves only the stolen/released share.
std::uint64_t replica_key(std::uint64_t salt, Ipv4Address dip, std::uint32_t replica) {
  return mix64(salt ^ (static_cast<std::uint64_t>(dip.value()) * 0x9e3779b97f4a7c15ULL) ^
               (static_cast<std::uint64_t>(replica + 1) << 32));
}

}  // namespace

std::size_t VersionedPoolMap::target_buckets(std::size_t live_dips) const noexcept {
  return next_pow2(std::max(knobs_.min_buckets, knobs_.buckets_per_dip * live_dips));
}

std::vector<Ipv4Address> VersionedPoolMap::color(const VipPool& pool,
                                                 std::size_t buckets) const {
  // Live replica keys: one per alive WCMP slot, grouped per DIP in slot
  // order so replica ordinals are stable across rebuilds of the same pool.
  struct Replica {
    std::uint64_t key;
    Ipv4Address dip;
  };
  std::vector<Replica> replicas;
  replicas.reserve(pool.dips.size());
  {
    // Replica ordinal = how many alive slots of this DIP precede this one.
    // O(slots^2) worst case, but slots is tens-to-hundreds and this is the
    // off-path build.
    for (std::uint32_t s = 0; s < pool.dips.size(); ++s) {
      if (!pool.group.member_alive(s)) continue;
      std::uint32_t ordinal = 0;
      for (std::uint32_t t = 0; t < s; ++t) {
        if (pool.dips[t] == pool.dips[s] && pool.group.member_alive(t)) ++ordinal;
      }
      replicas.push_back({replica_key(salt_, pool.dips[s], ordinal), pool.dips[s]});
    }
  }
  DUET_CHECK(!replicas.empty()) << "coloring a pool with no live DIP slots";

  // Highest-random-weight choice per bucket: integer-only (bit-for-bit
  // across platforms and sweep widths), ties broken by replica order.
  std::vector<Ipv4Address> owner(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    std::uint64_t best = 0;
    Ipv4Address best_dip = replicas[0].dip;
    bool first = true;
    for (const Replica& r : replicas) {
      const std::uint64_t score = mix64(r.key ^ b);
      if (first || score > best) {
        best = score;
        best_dip = r.dip;
        first = false;
      }
    }
    owner[b] = best_dip;
  }
  return owner;
}

bool VersionedPoolMap::rebuild(const VipPool& pool, double now_us, Ipv4Address removed_dip) {
  // Bucket sizing is keyed on DISTINCT live DIPs, not WCMP-expanded slots: a
  // weight change reshuffles shares inside the same flow space, and letting
  // it inflate the target would trip the regrow path (a full stamp reset —
  // the one deliberate PCC break) on a routine weight update.
  std::vector<Ipv4Address> distinct;
  for (std::uint32_t s = 0; s < pool.dips.size(); ++s) {
    if (!pool.group.member_alive(s)) continue;
    if (std::find(distinct.begin(), distinct.end(), pool.dips[s]) == distinct.end()) {
      distinct.push_back(pool.dips[s]);
    }
  }
  const std::size_t live = distinct.size();
  DUET_CHECK(live > 0) << "stateless rebuild with no live DIP slots";

  const bool first_build = versions_.empty();
  std::size_t buckets = first_build ? target_buckets(live) : bucket_count();
  // Regrow when the pool outgrew its headroom so badly that coverage would
  // suffer; never shrink. A regrow is PCC-preserving REFINEMENT, not a
  // remap: bucket = hash & mask and both sizes are powers of two, so a new
  // bucket's low bits name the old bucket it split from — stamps, drain
  // timestamps, and every retained version's coloring carry over in place
  // and no flow's decision changes until the NEW version recolors it.
  if (!first_build && target_buckets(live) > buckets * 2) {
    buckets = target_buckets(live);
  }
  if (!first_build && buckets != bucket_count()) {
    ++stats_.bucket_regrows;
    const std::size_t old_mask = mask_;
    for (auto& v : versions_) {
      auto grown = std::make_shared<MapVersion>();
      grown->epoch = v->epoch;
      grown->owner.resize(buckets);
      for (std::size_t b = 0; b < buckets; ++b) grown->owner[b] = v->owner[b & old_mask];
      v = std::move(grown);
    }
    std::vector<std::uint32_t> stamp(buckets);
    std::vector<double> last_seen(buckets);
    for (std::size_t b = 0; b < buckets; ++b) {
      stamp[b] = stamp_[b & old_mask];
      last_seen[b] = last_seen_us_[b & old_mask];
    }
    stamp_ = std::move(stamp);
    last_seen_us_ = std::move(last_seen);
    mask_ = buckets - 1;
  }

  std::vector<Ipv4Address> owner = color(pool, buckets);

  if (!first_build && owner == versions_.back()->owner) {
    // Unchanged coloring (controller re-sync): no new version. A removed
    // DIP can still be stamped into an OLDER pinned version, though — those
    // buckets must flip now (their connections are dead, §5.1).
    ++stats_.noop_builds;
    if (removed_dip != Ipv4Address{}) {
      const std::uint32_t newest = versions_.back()->epoch;
      for (std::size_t b = 0; b < stamp_.size(); ++b) {
        if (stamp_[b] == newest) continue;
        const MapVersion* v = version(stamp_[b]);
        if (v != nullptr && v->owner[b] == removed_dip) {
          stamp_[b] = newest;
          ++stats_.dead_owner_flips;
        }
      }
      retire_unreferenced();
    }
    recount_pinned();  // a regrow or a dead-owner flip changed the stamps
    return false;
  }

  auto next = std::make_shared<MapVersion>();
  next->epoch = next_epoch_++;
  next->owner = std::move(owner);

  if (first_build) {
    // Fresh bucket space: every bucket starts on this version.
    mask_ = buckets - 1;
    stamp_.assign(buckets, next->epoch);
    last_seen_us_.assign(buckets, -std::numeric_limits<double>::infinity());
    versions_.push_back(std::move(next));
    ++stats_.builds;
    recount_pinned();
    return true;
  }

  // Advance every bucket whose effective owner is unchanged — only genuinely
  // recolored buckets stay pinned (and only until they drain). Buckets whose
  // pinned owner is the removed DIP flip immediately (dead connections).
  for (std::size_t b = 0; b < stamp_.size(); ++b) {
    const MapVersion* cur = version(stamp_[b]);
    DUET_CHECK(cur != nullptr) << "bucket stamped with a retired version";
    if (cur->owner[b] == next->owner[b]) {
      stamp_[b] = next->epoch;
    } else if (removed_dip != Ipv4Address{} && cur->owner[b] == removed_dip) {
      stamp_[b] = next->epoch;
      ++stats_.dead_owner_flips;
    }
    // else: in transition — adopts on drain (lookup) or force-retire below.
  }
  versions_.push_back(std::move(next));
  ++stats_.builds;

  retire_unreferenced();

  // Hard cap: force-retire the oldest pinned versions, flipping their
  // buckets to the newest map. Each flipped bucket is a potential PCC break
  // for flows still alive in it — counted, and zero in every shipped gate.
  if (knobs_.max_versions > 0) {
    while (versions_.size() > knobs_.max_versions) {
      const std::uint32_t doomed = versions_.front()->epoch;
      const std::uint32_t newest = versions_.back()->epoch;
      for (std::size_t b = 0; b < stamp_.size(); ++b) {
        if (stamp_[b] == doomed) {
          stamp_[b] = newest;
          ++stats_.forced_adoptions;
        }
      }
      versions_.erase(versions_.begin());
      ++stats_.retired_versions;
    }
  }
  (void)now_us;
  recount_pinned();
  return true;
}

void VersionedPoolMap::recount_pinned() noexcept {
  pinned_ = 0;
  pinned_seen_floor_us_ = std::numeric_limits<double>::infinity();
  if (versions_.empty()) return;
  const std::uint32_t newest = versions_.back()->epoch;
  for (std::size_t b = 0; b < stamp_.size(); ++b) {
    if (stamp_[b] == newest) continue;
    ++pinned_;
    pinned_seen_floor_us_ = std::min(pinned_seen_floor_us_, last_seen_us_[b]);
  }
}

void VersionedPoolMap::retire_unreferenced() {
  // Mark epochs still referenced by any bucket stamp; the newest version is
  // always live (it serves every drained bucket and all new flows).
  std::vector<bool> referenced(versions_.size(), false);
  referenced.back() = true;
  for (const std::uint32_t e : stamp_) {
    for (std::size_t i = 0; i < versions_.size(); ++i) {
      if (versions_[i]->epoch == e) {
        referenced[i] = true;
        break;
      }
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < versions_.size(); ++i) {
    if (referenced[i]) {
      if (kept != i) versions_[kept] = std::move(versions_[i]);
      ++kept;
    } else {
      ++stats_.retired_versions;
    }
  }
  versions_.resize(kept);
}

std::size_t VersionedPoolMap::adopt_drained(double now_us) {
  // Every pinned bucket was seen at or after the floor, so while the floor
  // is inside the drain window none of them can flip.
  if (pinned_ == 0 || now_us - pinned_seen_floor_us_ < knobs_.drain_idle_us) return 0;
  const std::uint32_t newest = versions_.back()->epoch;
  std::size_t flipped = 0;
  for (std::size_t b = 0; b < stamp_.size(); ++b) {
    if (stamp_[b] == newest) continue;
    if (now_us - last_seen_us_[b] >= knobs_.drain_idle_us) {
      stamp_[b] = newest;
      ++stats_.adoptions;
      ++flipped;
    }
  }
  if (flipped > 0) retire_unreferenced();
  recount_pinned();  // tightens the floor to the buckets still held
  return flipped;
}

std::vector<std::uint32_t> VersionedPoolMap::referenced_epochs() const {
  std::vector<std::uint32_t> epochs(stamp_.begin(), stamp_.end());
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  return epochs;
}

}  // namespace duet::stateless
