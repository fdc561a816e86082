// In-process HMux fast tier (DESIGN.md §17).
//
// The paper's throughput claim rests on a tiny, dumb tier in front of the
// flexible one: an HMux is nothing but array indexing in switch memory,
// and it absorbs the hot aggregate while SMuxes keep the generality (§3,
// Fig 5). This is that split reproduced inside one box. A FastTierTable is
// a read-only flat snapshot of the HOT VIPs — one direct-mapped slot array
// from VIP to (salt, mask, bucket coloring) — and the serving loop consults
// it per batch BEFORE Smux::process_batch. A slot points straight at the
// admitted map version's own bucket array, which the table keeps alive by
// holding that version's shared_ptr (version pinning): the snapshot copies
// no coloring, so a rebuild costs O(1) per unchanged VIP. A hit is two
// dependent array reads (slot, then bucket) plus two mix64 rounds; a miss
// falls through to the full pipeline unchanged.
//
// Admission (the miss taxonomy — what stays cold):
//   * VIPs deciding through the STATEFUL engine: their decisions depend on
//     per-flow pins the snapshot cannot see. Always a miss.
//   * VIPs with any (vip, port) ACL rule: the fast tier indexes by
//     destination address only; a port-rule VIP's packets would need the
//     rule-resolution stage. Always a miss.
//   * Stateless VIPs whose VersionedPoolMap is still DRAINING (some bucket
//     stamp pinned to a pre-churn version): their decisions are
//     time-dependent until every bucket adopts the newest version. Miss
//     until settled.
//   * VIPs whose slot collides with an already-admitted VIP in the
//     direct-mapped array (rare; the builder grows the array to avoid it).
//
// For an ADMITTED VIP the map is settled — every bucket stamp references the
// newest version — so VersionedPoolMap::lookup degenerates to the pure
// expression `newest.owner[mix64(flow_hash ^ salt) & mask]`. The table
// holds exactly those three inputs (the coloring by reference), which makes
// hits bit-identical to the stateless engine's decision by construction
// (tests/fast_tier_test.cc twin-drives 1000 epochs of churn to prove it).
// A version the map later retires stays alive while a table still pins it;
// the worker rebuilds the table in the same wake that changed the map, so
// no batch is decided from a superseded coloring.
//
// Concurrency (the rebuild/swap protocol): a FastTier owns two table
// buffers and an atomic `current` pointer. Readers register once (a slot
// index) and per batch publish the table they read through a per-reader
// hazard slot — acquire() is an acquire-load plus one uncontended store and
// a re-check; no locks, no allocation, no CAS. rebuild() runs off the
// serving path (worker wake-up or tick / controller epoch): it re-snapshots
// the Smux into the spare buffer, swaps `current`, then spins until no
// reader still holds the retired buffer, which makes that buffer the next
// rebuild's spare. Lookup and acquire/release are DUET_HOT purity roots
// enforced by tools/hotcheck.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/ip.h"
#include "util/hot.h"
#include "util/mix.h"

namespace duet {

class Smux;

// One immutable hot-VIP snapshot: a power-of-two direct-mapped Slot array
// whose slots point into the admitted map versions' bucket arrays, which
// the table pins (shared ownership) for as long as it holds them. Never
// mutated after build; readers need no synchronization beyond the FastTier
// hazard protocol that bounds its lifetime.
class FastTierTable {
 public:
  struct Slot {
    std::uint32_t vip = 0;     // 0 (0.0.0.0, never a VIP) = empty
    std::uint32_t mask = 0;    // pool bucket mask (bucket_count - 1)
    std::uint64_t salt = 0;    // pool salt (vip_group_salt of the VIP)
    const Ipv4Address* dips = nullptr;  // admitted version's bucket -> DIP
    std::uint32_t epoch = 0;   // admitted map version (introspection only)
  };

  // The hot path: the DIP the stateless engine would choose for a packet to
  // `vip_value` with 5-tuple hash `flow_hash`, or nullptr when the VIP is
  // not admitted (fall through to the full pipeline). One direct-mapped
  // probe — no chains, no branches to cold code. Purity root (DESIGN.md
  // §14): pure array reads, no allocation, no clock, ever.
  DUET_HOT const Ipv4Address* lookup(std::uint32_t vip_value,
                                     std::uint64_t flow_hash) const noexcept {
    const Slot& s = slots_[slot_probe(vip_value) & slot_mask_];
    if (s.vip != vip_value) return nullptr;
    const std::size_t b = static_cast<std::size_t>(mix64(flow_hash ^ s.salt)) & s.mask;
    return &s.dips[b];
  }

  bool empty() const noexcept { return admitted_.empty(); }
  std::size_t vip_count() const noexcept { return admitted_.size(); }
  // Buckets across the admitted pools' colorings.
  std::size_t dip_slots() const noexcept { return dip_slots_; }
  std::size_t slot_count() const noexcept { return slots_.size(); }
  bool admits(Ipv4Address vip) const noexcept {
    const Slot& s = slots_[slot_probe(vip.value()) & slot_mask_];
    return s.vip == vip.value() && vip.value() != 0;
  }
  // Admitted VIP values, build order. Control path (rebuild diffing, tests).
  const std::vector<std::uint32_t>& admitted() const noexcept { return admitted_; }

  // Builder input: one admitted pool. `owner` (the settled map's newest
  // bucket coloring, mask + 1 entries) is pinned by the table, not copied.
  struct Entry {
    std::uint32_t vip = 0;
    std::uint64_t salt = 0;
    std::uint32_t mask = 0;
    std::uint32_t epoch = 0;
    std::shared_ptr<const std::vector<Ipv4Address>> owner;
  };

 private:
  friend class FastTier;

  // VIP → slot probe: Fibonacci multiply-shift, one imul + one shift on the
  // critical address chain (~3x cheaper than a full mix64, which the hit
  // path would otherwise pay per packet on top of the mandatory bucket
  // mix64). Purely internal — build() and lookup() only have to agree with
  // EACH OTHER; the bucket index above must stay the engine's exact
  // mix64(flow_hash ^ salt) for bit-identity.
  static std::size_t slot_probe(std::uint32_t vip_value) noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(vip_value) * 0x9e3779b97f4a7c15ULL) >> 32);
  }

  // Rebuilds this buffer in place from `entries`. Grows the slot array
  // until every entry lands collision-free (up to a cap; past it the
  // colliding tail stays cold — a miss, never a wrong answer). Returns the
  // number of entries dropped to collisions.
  std::size_t build(const std::vector<Entry>& entries);

  std::vector<Slot> slots_{Slot{}};  // power-of-two, never empty (see build)
  // The colorings slots point into, one per admitted VIP (build order).
  std::vector<std::shared_ptr<const std::vector<Ipv4Address>>> pinned_;
  std::vector<std::uint32_t> admitted_;
  std::size_t slot_mask_ = 0;
  std::size_t dip_slots_ = 0;
};

// The double-buffered container: one per worker (its Smux replica is the
// snapshot source), or standalone in tests/benches. Readers and the single
// rebuilder may run on different threads; rebuilds are serialized by the
// caller (they run on the owning worker's serving thread, between batches).
class FastTier {
 public:
  struct RebuildStats {
    std::size_t admitted = 0;           // VIPs in the new table
    std::size_t rejected_engine = 0;    // stateful-engine VIPs (per-flow pins)
    std::size_t rejected_port_rule = 0; // VIPs carrying (vip, port) ACL rules
    std::size_t rejected_unsettled = 0; // maps still draining old versions
    std::size_t rejected_collision = 0; // direct-mapped slot collisions
    std::size_t dip_slots = 0;          // buckets across admitted colorings
  };

  // `readers` fixes the hazard-slot count; reader ids are [0, readers).
  explicit FastTier(std::size_t readers = 1);

  // --- hot path ---------------------------------------------------------------
  // Pins and returns the current table for reader `reader`. The pointer
  // stays valid until release(). One acquire-load, one hazard store, one
  // re-check load; the re-check loop only spins if a rebuild lands between
  // the load and the store (control-path rare).
  DUET_HOT const FastTierTable* acquire(std::size_t reader) noexcept {
    std::atomic<const FastTierTable*>& slot = hazards_[reader].ptr;
    const FastTierTable* t = current_.load(std::memory_order_acquire);
    for (;;) {
      // seq_cst store + seq_cst re-load: both sides' store→load sequences
      // join the single seq_cst total order, so either the rebuilder's scan
      // sees our hazard or we see the new current and retry. (A fence would
      // express the same pairing but is a compile error under -Werror=tsan.)
      slot.store(t, std::memory_order_seq_cst);
      const FastTierTable* now = current_.load(std::memory_order_seq_cst);
      if (now == t) return t;
      t = now;
    }
  }
  DUET_HOT void release(std::size_t reader) noexcept {
    hazards_[reader].ptr.store(nullptr, std::memory_order_release);
  }

  // --- control path -----------------------------------------------------------
  // Re-snapshots the hot-VIP set from `smux` into the spare buffer and
  // swaps it in. Mutates smux's stateless maps on the way in two
  // PCC-preserving ways: a previously admitted pool that is now unsettled,
  // or that this build drops, gets every bucket's last-seen refreshed to
  // `now_us` (traffic served by the fast tier is invisible to the map's
  // drain clock, so once the map decides that pool's flows again those
  // buckets must be presumed live), and candidate pools get their expired
  // buckets adopted (adopt_drained) so an idle pool re-settles without
  // needing a packet per bucket. O(1) per unchanged VIP: settled(),
  // adopt_drained() on a settled map and the pinned coloring are all
  // constant-time. Caller serializes rebuilds.
  RebuildStats rebuild(Smux& smux, double now_us);

  // Swaps in an explicit entry set (tests; also the path rebuild() uses).
  RebuildStats install(const std::vector<FastTierTable::Entry>& entries);

  const FastTierTable* current() const noexcept {
    return current_.load(std::memory_order_acquire);
  }
  std::uint64_t rebuilds() const noexcept {
    return rebuilds_.load(std::memory_order_relaxed);
  }
  std::size_t reader_slots() const noexcept { return hazards_.size(); }

 private:
  friend class FastTierBuilderProbe;  // tests

  struct alignas(64) Hazard {
    std::atomic<const FastTierTable*> ptr{nullptr};
  };

  // Blocks until no hazard slot references `retired` (readers are per-batch
  // critical sections, so this is microseconds).
  void wait_unreferenced(const FastTierTable* retired) const noexcept;

  FastTierTable buffers_[2];
  std::atomic<const FastTierTable*> current_;
  std::vector<Hazard> hazards_;
  std::atomic<std::uint64_t> rebuilds_{0};
};

}  // namespace duet
