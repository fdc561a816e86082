// Structured control-plane event journal.
//
// Every interesting control-plane step — VIP lifecycle, §4.2 migration
// phases, BGP announce/withdraw, DIP health transitions, mux failures,
// table-occupancy snapshots — is recorded as one typed event with an
// EXPLICIT simulation timestamp supplied by the caller (the journal never
// reads a clock). Events may arrive out of timestamp order — concurrent
// shards, or a controller journaling a batch after the fact — so queries
// return a stably time-ordered view: ties keep insertion order, which makes
// same-instant control-plane step sequences (withdraw before announce)
// deterministic, exactly like sim/event.h's queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/ip.h"

namespace duet::telemetry {

enum class EventKind : std::uint8_t {
  kVipAdded,            // VIP defined; starts on the SMux backstop (§5.2)
  kVipRemoved,
  kVipPlaced,           // VIP landed on an HMux (sw = switch)
  kVipFallback,         // VIP fell back to the SMux pool (failure or bounce)
  kMigrationWithdraw,   // §4.2 phase 1: leave the old HMux, transit SMuxes
  kMigrationAnnounce,   // §4.2 phase 2: land on the new HMux
  kBgpAnnounce,         // route originated (a = /32 VIP route or aggregate)
  kBgpWithdraw,
  kDipUp,               // DIP health transitions (§5.1)
  kDipDown,
  kHmuxDown,            // switch failure (sw)
  kSmuxDown,            // software mux failure (a = smux id)
  kTableOccupancy,      // snapshot: a/b/c = host/ECMP/tunnel entries used (sw)
  kStatelessVersionBuild,  // stateless map version pushed to the SMuxes (vip)
  kChaosInject,         // chaos-harness adversary event (detail = event name)
  kPersistRecover,      // duetd booted from snapshot+journal (a = snapshot
                        // seq, b = ops replayed, c = 1 if a torn tail was cut)
};

// Stable wire name, used by the exporters and grep-able in dumps.
const char* to_string(EventKind kind);

inline constexpr std::uint32_t kNoSwitch = 0xffffffffu;

struct Event {
  double t_us = 0.0;
  EventKind kind = EventKind::kVipAdded;
  Ipv4Address vip{};                 // 0.0.0.0 when not VIP-scoped
  Ipv4Address dip{};                 // 0.0.0.0 when not DIP-scoped
  std::uint32_t sw = kNoSwitch;      // switch id when switch-scoped
  std::uint64_t a = 0, b = 0, c = 0; // kind-specific payload
  std::string detail;                // short free text, optional
};

class EventJournal {
 public:
  void record(Event e) { events_.push_back(std::move(e)); }
  void record(double t_us, EventKind kind, Ipv4Address vip = {}, Ipv4Address dip = {},
              std::uint32_t sw = kNoSwitch, std::string detail = {}) {
    record(Event{t_us, kind, vip, dip, sw, 0, 0, 0, std::move(detail)});
  }

  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }
  void clear() {
    events_.clear();
    ++clears_;
  }
  // How many times clear() ran: an incremental reader (audit::JournalCursor)
  // tells a cleared-then-regrown journal from one that only grew.
  std::uint64_t clears() const noexcept { return clears_; }

  // Insertion order (the raw stream).
  const std::vector<Event>& events() const noexcept { return events_; }

  // Stably time-ordered view; ties keep insertion order.
  std::vector<Event> ordered() const;
  // Time-ordered events of one kind.
  std::vector<Event> of_kind(EventKind kind) const;
  // Time-ordered events touching one VIP.
  std::vector<Event> for_vip(Ipv4Address vip) const;

  // Appends a shard's events (ordering is resolved at query time).
  void merge(const EventJournal& other);

 private:
  std::vector<Event> events_;
  std::uint64_t clears_ = 0;
};

}  // namespace duet::telemetry
