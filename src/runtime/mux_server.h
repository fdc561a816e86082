// duetd's serving core: SMuxes behind real UDP sockets.
//
// A MuxServer hosts N workers, each an SO_REUSEPORT socket + an Smux replica
// + an EventLoop + a BatchIo pool, driven by an exec::ThreadPool. The kernel
// shards ingress by 4-tuple hash, so every datagram of a flow lands on one
// worker — per-worker flow tables need no locks, exactly the Ananta SMux
// scale-out model the paper assumes (§2.2).
//
// Per batch (DESIGN.md §12): recvmmsg → parse_packet per datagram →
// Smux::process_batch (one clock read per batch, flow-slot prefetch, batched
// telemetry) → encapsulate_on_wire into each rx buffer's headroom
// (zero-copy) → sendmmsg to the DIPs' real endpoints (map_dip). Live
// control updates are applied when the worker's loop is woken, ahead of the
// next batch. Idle-flow eviction runs as a bounded incremental scan on the
// event-loop tick (evict_scan_slots per tick), never a full-table pass on
// the serving thread. Every Smux replica is built
// from the same FlowHasher seed and per-VIP salt as a pure-simulation Smux,
// so live first-packet decisions are bit-identical to the sim's — the
// equivalence contract tests/runtime_test.cc asserts.
//
// Lifecycle: configure (set_vip / map_dip) → start() → traffic → shutdown()
// (stop accepting, per-worker drain flush) → join() → final metrics /
// audit_snapshot(). SIGTERM handling lives in the caller (duetctl serve):
// signal handlers only flip a flag; the server never installs its own.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/snapshot.h"
#include "duet/config.h"
#include "net/hash.h"
#include "net/ip.h"
#include "runtime/udp.h"
#include "telemetry/metrics.h"
#include "util/flat_table.h"

namespace duet::runtime {

struct MuxServerOptions {
  Endpoint listen{Ipv4Address{127, 0, 0, 1}, 0};  // port 0 = kernel-assigned
  std::size_t workers = 1;
  std::size_t batch = 64;    // datagrams per recvmmsg/sendmmsg
  int tick_ms = 50;          // event-loop tick (flow expiry, stats, re-admission)
  double stats_interval_s = 0.0;  // >0: periodic live counters
  std::string stats_json_path;    // interval-exported JSON ("" = none)
  bool print_stats = false;       // one stdout line per interval
  int drain_wait_ms = 100;        // post-shutdown flush budget per worker
  // Flow-table slots scanned per event-loop tick by the incremental idle
  // evictor (Smux::expire_flows_step). Bounds eviction work per tick so GC
  // never stalls a batch; the full table is cycled across successive ticks.
  std::size_t evict_scan_slots = 2048;
  // Pins worker i to CPU (i mod online CPUs) via pthread_setaffinity_np.
  // Overridable by the DUET_CPU_PIN env var ("1"/"0"); a failed pin (no
  // Linux, restricted sandbox) degrades to unpinned, never an error.
  bool pin_cpus = false;

  FlowHasher hasher{};  // MUST match the reference sim's seed for equivalence
  Ipv4Address self{192, 0, 2, 100};  // outer encap source address
  // Audit backstop prefix; a VIP outside it fails the §3.3.1 aggregate check.
  Ipv4Prefix vip_aggregate{Ipv4Address{100, 0, 0, 0}, 8};
};

class MuxServer {
 public:
  MuxServer(MuxServerOptions options, DuetConfig config);
  ~MuxServer();
  MuxServer(const MuxServer&) = delete;
  MuxServer& operator=(const MuxServer&) = delete;

  // --- configuration (before start()) ---------------------------------------
  void set_vip(Ipv4Address vip, std::vector<Ipv4Address> dips,
               std::vector<std::uint32_t> weights = {});
  // Where packets whose chosen DIP is `dip` are actually forwarded. A DIP
  // without a mapping drops (counted in duet.runtime.unmapped_dip).
  void map_dip(Ipv4Address dip, Endpoint at);

  // --- live reconfiguration ---------------------------------------------------
  // Thread-safe VIP/DIP mutation that also works while serving: before
  // start() these behave like set_vip/map_dip; on a running server each
  // call queues ONE entry per worker and wakes each worker's loop once,
  // which applies it — and re-snapshots the fast tier after a VIP change —
  // before that worker serves its next batch. The hot path itself never
  // takes a lock (each worker owns its Smux replica and its own
  // DIP→endpoint map copy). Convergence latency is one loop wake-up per
  // worker, independent of tick_ms. duetd drives these from its ops socket.
  //
  // `new_endpoints` maps the update's fresh DIPs (where packets chosen for
  // them are forwarded) in the same queue entry, so one control op costs
  // each worker one wake however many DIPs it brings.
  struct DipEndpoint {
    Ipv4Address dip;
    Endpoint at;
  };
  void apply_vip_update(Ipv4Address vip, std::vector<Ipv4Address> dips,
                        std::vector<std::uint32_t> weights = {},
                        std::vector<DipEndpoint> new_endpoints = {});
  void apply_vip_removal(Ipv4Address vip);

  // --- lifecycle ------------------------------------------------------------
  // Binds the worker sockets and launches the serving threads. False when a
  // bind fails (port in use, no SO_REUSEPORT with workers > 1).
  bool start();
  // Async-signal-UNSAFE stop request (callers flip their own sig_atomic_t in
  // handlers and call this from the main loop). Workers stop accepting,
  // flush queued batches for up to drain_wait_ms, then exit.
  void shutdown();
  // Blocks until every worker has drained. Idempotent.
  void join();
  bool running() const noexcept { return running_.load(std::memory_order_acquire); }

  // Resolved listen endpoint (valid after start(); resolves port 0).
  Endpoint listen_endpoint() const;

  // --- observability ----------------------------------------------------------
  // Counters: duet.runtime.{rx_packets, rx_bytes, tx_packets, tx_bytes,
  // parse_failures, unmapped_dip, tx_drops, rx_batches}; histogram
  // duet.runtime.batch_fill; plus per-worker Smux metrics under
  // duet.runtime.smux.w<i>.*. Reading while workers run sees live
  // (relaxed-atomic) values; consistent totals require join() first.
  telemetry::MetricRegistry& metrics() noexcept { return registry_; }
  const telemetry::MetricRegistry& metrics() const noexcept { return registry_; }

  // Summed across workers. Quiescent only after join().
  std::size_t flow_table_size() const;

  // One worker's serving counters, snapshotted from its lock-free
  // single-writer cells (each is one relaxed load; no mutex anywhere).
  // Consistent totals require join(); live reads see per-cell-atomic values.
  struct WorkerStatsSnapshot {
    std::uint64_t rx_packets = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_batches = 0;
    std::uint64_t parse_failures = 0;
    std::uint64_t unmapped_dip = 0;
    std::uint64_t tx_drops = 0;
    std::uint64_t fast_hits = 0;
    std::uint64_t fast_misses = 0;
    std::uint64_t fast_rebuilds = 0;
    std::uint64_t wakes = 0;  // loop wake-ups served (on_wake calls)
  };
  std::vector<WorkerStatsSnapshot> worker_stats() const;

  // The live deployment rendered in the auditor's data model: the worker
  // pool as a pure-software SMux fleet (no switches, every VIP on the SMux
  // list, backstopped by vip_aggregate). Capture after join(), mirroring
  // SystemSnapshot::capture's converged-controller contract.
  audit::SystemSnapshot audit_snapshot() const;

 private:
  struct Worker;
  struct PendingUpdate;
  struct VipRecord {
    Ipv4Address vip;
    std::vector<Ipv4Address> dips;
    std::vector<std::uint32_t> weights;
  };

  // Queues one update on every worker and wakes each worker's loop once.
  void enqueue_update(const PendingUpdate& update);
  // Applies queued updates to this worker's Smux replica + DIP map. Runs on
  // the worker thread (wake callback), so it never races process_batch.
  void drain_updates(Worker& worker);

  void serve(std::size_t index);
  // Re-snapshots the worker's fast tier when VIP churn, an explicit rebuild
  // request or a VIP rejected as unsettled left it dirty. Worker thread
  // only (wake and tick callbacks).
  void maybe_rebuild_fast(Worker& worker, double now);
  // Pushes this worker's counter deltas into the shared registry (tick and
  // final drain; never the per-batch path).
  void fold_stats(Worker& worker);
  // Reads and forwards until the socket drains; returns the datagram count.
  // `draining` shortens the tx flush wait so shutdown cannot stall on a full
  // socket buffer.
  std::size_t pump(Worker& worker, bool draining);
  void maybe_export_stats(double now_us);
  double now_us() const;

  MuxServerOptions opts_;
  DuetConfig config_;
  telemetry::MetricRegistry registry_;
  telemetry::Counter* tm_rx_packets_;
  telemetry::Counter* tm_rx_bytes_;
  telemetry::Counter* tm_tx_packets_;
  telemetry::Counter* tm_tx_bytes_;
  telemetry::Counter* tm_parse_failures_;
  telemetry::Counter* tm_unmapped_dip_;
  telemetry::Counter* tm_tx_drops_;
  telemetry::Counter* tm_rx_batches_;
  telemetry::Counter* tm_fast_hits_;
  telemetry::Counter* tm_fast_misses_;
  telemetry::Counter* tm_fast_rebuilds_;
  telemetry::Histogram* tm_batch_fill_;

  // Desired configuration (what start() seeds workers from and what
  // audit_snapshot renders). Guarded by config_mu_ once live updates exist.
  std::mutex config_mu_;
  std::vector<VipRecord> vips_;
  // Seed copy for workers; each worker serves from its OWN copy so the
  // per-packet DIP→endpoint hop is one unshared cache line.
  util::FlatTable<Ipv4Address, Endpoint> dip_map_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread runner_;
  std::chrono::steady_clock::time_point t0_;

  // Interval-stats state; touched only by worker 0's tick. The interval
  // path reads ONLY the per-worker lock-free cells (one relaxed load each)
  // — never the registry, whose snapshot views take a mutex.
  std::uint64_t last_rx_ = 0;
  std::uint64_t last_tx_ = 0;
  double last_stats_us_ = 0.0;
};

}  // namespace duet::runtime
