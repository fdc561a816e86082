// VersionedPoolMap: the stateless engine's per-pool decision structure —
// a versioned, Othello/MPH-style bucket coloring from connection hash to
// DIP, with per-bucket epoch stamps instead of per-flow entries (Concury,
// arXiv:1908.01889; the stateful/stateless trade-off of arXiv:2010.13385).
//
// Structure (DESIGN.md §13):
//   * A power-of-two array of B buckets, B = O(distinct DIPs) chosen at pool
//     creation with headroom (regrown only by PCC-preserving bucket
//     splitting when the DIP count outgrows it 2x — the low bits of a new
//     bucket index name the old bucket it split from, so every carried-over
//     stamp, timestamp, and retained coloring refines in place). A flow's
//     bucket is a pure function of its 5-tuple hash and the pool salt — no
//     per-flow entry is ever written.
//   * A MAP VERSION is an immutable bucket -> DIP coloring built off-path by
//     weighted rendezvous hashing over (DIP, replica) keys: removing a DIP
//     recolors only its own buckets, adding a DIP (or weight) steals only
//     the new replicas' share — the minimal-disruption property resilient
//     hashing gives the switch, reproduced without mutable bucket state.
//   * DIP updates BUILD A NEW VERSION; old versions are retained for
//     in-flight connections. Each bucket carries a compact epoch stamp
//     naming the version its established flows still decide through, plus a
//     last-packet timestamp. A recolored bucket adopts the newest version
//     only after stateless_drain_idle_us of silence: an idle bucket holds no
//     live flows, so the flip breaks no connection (PCC) — the bucket-
//     granular analogue of flow-table idle eviction. New flows land on the
//     newest version everywhere except inside a still-draining bucket.
//   * The map counts its pinned buckets (stamp != newest epoch) and keeps a
//     lower bound on their last-seen times (the drain floor). Control-path
//     mutations recount both; lookup()'s adoption decrements the count. So
//     settled() is O(1), and adopt_drained() returns at once while no
//     pinned bucket can have been idle for a full drain window — the fast
//     tier asks both of every stateless VIP on every snapshot.
//   * A version is retired only when no bucket stamp references it (the
//     retirement invariant tests/stateless_test.cc proves), except past the
//     stateless_max_versions cap, where the oldest pinned version is
//     force-retired and its buckets counted in forced_adoptions.
//
// Memory is O(B) = O(DIPs x headroom), flat in concurrent flows — there is
// nothing per-flow for a SYN flood to exhaust (bench_stateless plots this
// against the stateful flow table).
//
// Not thread-safe: one map belongs to one engine, one SMux replica, one
// worker — the same model as the flow table. lookup() is the only hot-path
// entry; everything else is control path.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "duet/decision_engine.h"
#include "net/ip.h"
#include "util/hot.h"
#include "util/mix.h"

namespace duet::stateless {

// One immutable bucket -> DIP coloring. Shared-ptr ownership: the ASan
// lifetime test holds a version alive through its own reference and reads
// its data through a raw pointer while any bucket still stamps it.
struct MapVersion {
  std::uint32_t epoch = 0;
  std::vector<Ipv4Address> owner;  // bucket -> DIP
};

struct StatelessKnobs {
  double drain_idle_us = 120e6;
  std::size_t buckets_per_dip = 32;
  std::size_t min_buckets = 256;
  std::size_t max_versions = 16;  // 0 = unbounded
};

class VersionedPoolMap {
 public:
  VersionedPoolMap() = default;
  VersionedPoolMap(std::uint64_t salt, const StatelessKnobs& knobs)
      : salt_(salt), knobs_(knobs) {}

  // Off-path (re)build from the pool's current slot layout. Installs a new
  // version only when the coloring actually changed (controller re-syncs are
  // no-ops). `removed_dip` (non-zero) marks an in-place DIP removal: buckets
  // whose STAMPED version still points at it flip to the newest version
  // immediately — those connections terminate anyway (§5.1). Returns true
  // when a new version was installed.
  bool rebuild(const VipPool& pool, double now_us, Ipv4Address removed_dip = {});

  // The hot path: decide the DIP for a flow hash (FlowHasher over the
  // 5-tuple). Reads the bucket's stamped version, lazily adopting the
  // newest one when the bucket has drained. Precondition: rebuilt at least
  // once (the engine builds on pool_updated before any packet). Purity root
  // (DESIGN.md §14): pure array reads — no allocation, ever.
  DUET_HOT Ipv4Address lookup(std::uint64_t flow_hash, double now_us) {
    const std::size_t b = static_cast<std::size_t>(mix64(flow_hash ^ salt_)) & mask_;
    const MapVersion& newest = *versions_.back();
    std::uint32_t e = stamp_[b];
    if (e != newest.epoch) {
      if (now_us - last_seen_us_[b] >= knobs_.drain_idle_us) {
        stamp_[b] = newest.epoch;  // bucket drained: no live flows to break
        e = newest.epoch;
        --pinned_;
        ++stats_.adoptions;
      } else {
        ++stats_.held_lookups;  // established flows keep their old version
        // Keeps the drain floor a lower bound even if time runs backwards.
        if (now_us < pinned_seen_floor_us_) pinned_seen_floor_us_ = now_us;
      }
    }
    last_seen_us_[b] = now_us;
    ++stats_.lookups;
    return (e == newest.epoch ? newest : *version(e)).owner[b];
  }

  // --- introspection ---------------------------------------------------------
  bool built() const noexcept { return !versions_.empty(); }
  std::size_t bucket_count() const noexcept { return stamp_.size(); }
  std::uint32_t newest_epoch() const noexcept { return versions_.back()->epoch; }
  std::size_t version_count() const noexcept { return versions_.size(); }

  // The retained version carrying `epoch`, nullptr when retired. Valid until
  // the next rebuild retires it (the retirement invariant: never while any
  // bucket stamp references it, absent a max_versions force-retire).
  const MapVersion* version(std::uint32_t epoch) const noexcept {
    // Newest-first: the hot path only ever misses on a draining bucket.
    for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
      if ((*it)->epoch == epoch) return it->get();
    }
    return nullptr;
  }

  // Distinct epochs referenced by bucket stamps, ascending.
  std::vector<std::uint32_t> referenced_epochs() const;

  // True when every bucket stamp references the newest version — the state
  // in which lookup() degenerates to the pure expression
  // `newest.owner[mix64(hash ^ salt) & mask]` (no adoption, no held
  // version). The fast tier's admission predicate (duet/fast_tier.h). O(1):
  // reads the pinned-bucket count.
  bool settled() const noexcept { return !versions_.empty() && pinned_ == 0; }

  // Buckets whose stamp is not the newest epoch (still draining).
  std::size_t pinned_buckets() const noexcept { return pinned_; }

  // The newest version's bucket coloring, sharing that version's ownership:
  // the array stays valid for the holder even after a rebuild retires the
  // version (the fast tier pins its admitted colorings this way).
  std::shared_ptr<const std::vector<Ipv4Address>> newest_owner() const {
    const std::shared_ptr<const MapVersion>& v = versions_.back();
    return {v, &v->owner};
  }

  // Control-path drain sweep: flips every bucket whose drain window already
  // expired to the newest version — exactly the adoption lookup() would
  // perform lazily, done eagerly so an idle pool settles without a packet
  // per bucket. Returns the buckets flipped (counted as adoptions). O(1)
  // while nothing is pinned or the drain floor says no pinned bucket can
  // have been idle for a full window yet; a bucket scan otherwise.
  std::size_t adopt_drained(double now_us);

  // Refreshes every bucket's last-seen to `now_us`, postponing drain by a
  // full idle window. The fast tier calls this on admitted pools it stops
  // deciding from its snapshot (re-colored or dropped): traffic it absorbed
  // never stamped the map, so every bucket must be presumed recently active
  // (PCC-conservative).
  void mark_all_seen(double now_us) noexcept {
    for (double& t : last_seen_us_) t = now_us;
    pinned_seen_floor_us_ = now_us;
  }

  std::uint64_t salt() const noexcept { return salt_; }
  std::size_t bucket_mask() const noexcept { return mask_; }

  std::size_t bucket_of(std::uint64_t flow_hash) const noexcept {
    return static_cast<std::size_t>(mix64(flow_hash ^ salt_)) & mask_;
  }
  std::uint32_t stamp(std::size_t bucket) const noexcept { return stamp_[bucket]; }
  double last_seen_us(std::size_t bucket) const noexcept { return last_seen_us_[bucket]; }

  // Resident decision-state bytes: retained versions + stamps + timestamps.
  std::size_t state_bytes() const noexcept {
    return versions_.size() * bucket_count() * sizeof(Ipv4Address) +
           stamp_.size() * sizeof(std::uint32_t) +
           last_seen_us_.size() * sizeof(double) + sizeof(*this);
  }

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t held_lookups = 0;      // served by a pinned (non-newest) version
    std::uint64_t adoptions = 0;         // drained buckets advanced to newest
    std::uint64_t builds = 0;            // versions installed
    std::uint64_t noop_builds = 0;       // rebuilds with an unchanged coloring
    std::uint64_t retired_versions = 0;  // versions freed (no stamp referenced them)
    std::uint64_t forced_adoptions = 0;  // buckets flipped by the max_versions cap
    std::uint64_t dead_owner_flips = 0;  // buckets flipped off a removed DIP
    std::uint64_t bucket_regrows = 0;    // array regrown (PCC-preserving split)
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  // Chooses the bucket array size for the given live replica count.
  std::size_t target_buckets(std::size_t live_replicas) const noexcept;
  // The weighted-rendezvous coloring for the pool's live slots.
  std::vector<Ipv4Address> color(const VipPool& pool, std::size_t buckets) const;
  void retire_unreferenced();
  // Recomputes pinned_ and pinned_seen_floor_us_ from the stamps (control
  // path: after every mutation that can pin or unpin buckets wholesale).
  void recount_pinned() noexcept;

  std::uint64_t salt_ = 0;
  StatelessKnobs knobs_;
  std::size_t mask_ = 0;
  std::uint32_t next_epoch_ = 0;
  // Retained versions, ascending epoch; back() is the newest (live) one.
  std::vector<std::shared_ptr<const MapVersion>> versions_;
  std::vector<std::uint32_t> stamp_;     // bucket -> epoch serving its flows
  std::vector<double> last_seen_us_;     // bucket -> last packet time
  // Pinned-bucket bookkeeping, so settled() and an early adopt_drained()
  // need no bucket scan: the count of stamps != newest epoch, and a lower
  // bound on those buckets' last-seen times (the drain floor). Both stay
  // valid between recounts: lookup() only ever unpins, and lowers the floor
  // if it stamps a held bucket earlier than it; mark_all_seen() makes the
  // floor exact.
  std::size_t pinned_ = 0;
  double pinned_seen_floor_us_ = std::numeric_limits<double>::infinity();
  Stats stats_;
};

}  // namespace duet::stateless
