#include "runtime/mux_server.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "duet/fast_tier.h"
#include "duet/smux.h"
#include "exec/thread_pool.h"
#include "net/wire.h"
#include "runtime/event_loop.h"
#include "telemetry/export.h"
#include "util/logging.h"

namespace duet::runtime {

namespace {

// One single-writer serving counter: the owning worker is the only writer
// (plain load+store, no lock-prefixed RMW on the hot path); the stats tick
// on worker 0 reads it with one relaxed load.
struct StatCell {
  std::atomic<std::uint64_t> v{0};
  void add(std::uint64_t n) noexcept {
    v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  std::uint64_t get() const noexcept { return v.load(std::memory_order_relaxed); }
};

}  // namespace

struct MuxServer::PendingUpdate {
  enum class Kind : std::uint8_t { kSetVip, kRemoveVip };
  Kind kind = Kind::kSetVip;
  Ipv4Address vip;
  std::vector<Ipv4Address> dips;
  std::vector<std::uint32_t> weights;
  std::vector<DipEndpoint> maps;  // fresh DIP endpoints, applied before the VIP change
};

struct MuxServer::Worker {
  Worker(std::size_t index_, UdpSocket sock_, Smux smux_, std::size_t batch)
      : index(index_), sock(std::move(sock_)), smux(std::move(smux_)), io(batch) {
    rx.resize(batch);  // fixed-size descriptor array: recv_batch never grows it
    pkts.reserve(batch);
    chosen.reserve(batch);
    rx_index.reserve(batch);
    miss_pkts.reserve(batch);
    miss_pos.reserve(batch);
    miss_chosen.reserve(batch);
  }

  std::size_t index;
  UdpSocket sock;
  Smux smux;
  BatchIo io;
  EventLoop loop;
  std::vector<RxPacket> rx;
  std::vector<TxPacket> tx;
  // Per-batch scratch, reused so the hot path never allocates: parsed
  // packets, their decided DIPs, and each parsed packet's rx slot.
  std::vector<Packet> pkts;
  std::vector<Ipv4Address> chosen;
  std::vector<std::uint32_t> rx_index;
  // Fast-tier miss scatter/gather scratch: the cold remainder of a batch
  // (packets the snapshot cannot decide) and where each lands in `chosen`.
  std::vector<Packet> miss_pkts;
  std::vector<std::uint32_t> miss_pos;
  std::vector<Ipv4Address> miss_chosen;

  // This worker's fast tier (DESIGN.md §17), snapshotting this worker's own
  // Smux replica: settledness is per-replica state, so the table must be
  // built from — and on the serving thread of — the replica it fronts.
  FastTier fast{1};
  // VIP churn since the last snapshot, or VIPs the last build rejected as
  // unsettled (the tick retries until they settle and are re-admitted).
  bool fast_dirty = true;

  // Lock-free serving counters, this worker the only writer (one cache
  // line; see StatCell). The interval-stats tick and worker_stats() read
  // these; the shared registry is only fed folded deltas on the tick.
  struct alignas(64) HotStats {
    StatCell rx_packets, rx_bytes, tx_packets, tx_bytes, rx_batches;
    StatCell parse_failures, unmapped_dip, tx_drops;
    StatCell fast_hits, fast_misses, wakes;
  } stats;
  // Registry-fold bookkeeping (worker thread only): what has already been
  // pushed into the shared counters.
  struct Folded {
    std::uint64_t rx_packets = 0, rx_bytes = 0, tx_packets = 0, tx_bytes = 0;
    std::uint64_t rx_batches = 0, parse_failures = 0, unmapped_dip = 0, tx_drops = 0;
    std::uint64_t fast_hits = 0, fast_misses = 0, fast_rebuilds = 0;
  } folded;

  // This worker's own DIP→endpoint map. Unshared, so pump() reads it without
  // synchronization; live changes arrive through the pending queue below and
  // land when the worker's loop is woken.
  util::FlatTable<Ipv4Address, Endpoint> dip_map;
  std::mutex pending_mu;
  std::vector<PendingUpdate> pending;
};

MuxServer::MuxServer(MuxServerOptions options, DuetConfig config)
    : opts_(std::move(options)), config_(config) {
  tm_rx_packets_ = &registry_.counter("duet.runtime.rx_packets");
  tm_rx_bytes_ = &registry_.counter("duet.runtime.rx_bytes");
  tm_tx_packets_ = &registry_.counter("duet.runtime.tx_packets");
  tm_tx_bytes_ = &registry_.counter("duet.runtime.tx_bytes");
  tm_parse_failures_ = &registry_.counter("duet.runtime.parse_failures");
  tm_unmapped_dip_ = &registry_.counter("duet.runtime.unmapped_dip");
  tm_tx_drops_ = &registry_.counter("duet.runtime.tx_drops");
  tm_rx_batches_ = &registry_.counter("duet.runtime.rx_batches");
  tm_fast_hits_ = &registry_.counter("duet.runtime.fast_tier.hits");
  tm_fast_misses_ = &registry_.counter("duet.runtime.fast_tier.misses");
  tm_fast_rebuilds_ = &registry_.counter("duet.runtime.fast_tier.rebuilds");
  tm_batch_fill_ = &registry_.histogram(
      "duet.runtime.batch_fill", telemetry::Histogram::exponential_bounds(1.0, 1024.0, 11));
}

MuxServer::~MuxServer() {
  shutdown();
  join();
}

void MuxServer::set_vip(Ipv4Address vip, std::vector<Ipv4Address> dips,
                        std::vector<std::uint32_t> weights) {
  DUET_CHECK(!running()) << "set_vip on a running MuxServer";
  std::lock_guard<std::mutex> lock(config_mu_);
  vips_.push_back(VipRecord{vip, std::move(dips), std::move(weights)});
}

void MuxServer::map_dip(Ipv4Address dip, Endpoint at) {
  DUET_CHECK(!running()) << "map_dip on a running MuxServer";
  std::lock_guard<std::mutex> lock(config_mu_);
  dip_map_.insert(dip, at);
}

void MuxServer::enqueue_update(const PendingUpdate& update) {
  for (const auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->pending_mu);
      worker->pending.push_back(update);
    }
    worker->loop.wake();
  }
}

void MuxServer::drain_updates(Worker& worker) {
  std::vector<PendingUpdate> batch;
  {
    std::lock_guard<std::mutex> lock(worker.pending_mu);
    if (worker.pending.empty()) return;
    batch.swap(worker.pending);
  }
  for (const PendingUpdate& u : batch) {
    // Endpoints are post-decision state; the fast tier is unaffected.
    for (const DipEndpoint& m : u.maps) worker.dip_map.insert(m.dip, m.at);
    switch (u.kind) {
      case PendingUpdate::Kind::kSetVip:
        worker.smux.set_vip(u.vip, u.dips, u.weights);
        worker.fast_dirty = true;  // snapshot is stale until re-admitted
        break;
      case PendingUpdate::Kind::kRemoveVip:
        worker.smux.remove_vip(u.vip);
        worker.fast_dirty = true;
        break;
    }
  }
}

void MuxServer::apply_vip_update(Ipv4Address vip, std::vector<Ipv4Address> dips,
                                 std::vector<std::uint32_t> weights,
                                 std::vector<DipEndpoint> new_endpoints) {
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    for (const DipEndpoint& m : new_endpoints) dip_map_.insert(m.dip, m.at);
    bool found = false;
    for (VipRecord& rec : vips_) {
      if (rec.vip == vip) {
        rec.dips = dips;
        rec.weights = weights;
        found = true;
        break;
      }
    }
    if (!found) vips_.push_back(VipRecord{vip, dips, weights});
  }
  if (!running()) return;  // start() seeds workers from vips_
  PendingUpdate u;
  u.kind = PendingUpdate::Kind::kSetVip;
  u.vip = vip;
  u.dips = std::move(dips);
  u.weights = std::move(weights);
  u.maps = std::move(new_endpoints);
  enqueue_update(u);
}

void MuxServer::apply_vip_removal(Ipv4Address vip) {
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    for (auto it = vips_.begin(); it != vips_.end(); ++it) {
      if (it->vip == vip) {
        vips_.erase(it);
        break;
      }
    }
  }
  if (!running()) return;
  PendingUpdate u;
  u.kind = PendingUpdate::Kind::kRemoveVip;
  u.vip = vip;
  enqueue_update(u);
}

bool MuxServer::start() {
  if (running()) return false;
  workers_.clear();
  stop_.store(false, std::memory_order_release);

  // Env override for deployments that cannot edit options (benches, CI).
  if (const char* pin = std::getenv("DUET_CPU_PIN"); pin != nullptr && *pin != '\0') {
    opts_.pin_cpus = std::strcmp(pin, "0") != 0;
  }

  const std::size_t n = opts_.workers < 1 ? 1 : opts_.workers;
  const bool shard = n > 1;
  auto first = UdpSocket::bind(opts_.listen, shard);
  if (!first) return false;
  const Endpoint resolved = first->local();

  for (std::size_t w = 0; w < n; ++w) {
    std::optional<UdpSocket> sock;
    if (w == 0) {
      sock = std::move(first);
    } else {
      sock = UdpSocket::bind(resolved, true);
      if (!sock) {
        workers_.clear();
        return false;
      }
    }
    Smux smux(static_cast<std::uint32_t>(w), opts_.hasher, config_, opts_.self);
    for (const VipRecord& rec : vips_) smux.set_vip(rec.vip, rec.dips, rec.weights);
    smux.bind_telemetry(registry_, "duet.runtime.smux.w" + std::to_string(w) + ".");
    auto worker =
        std::make_unique<Worker>(w, std::move(*sock), std::move(smux), opts_.batch);
    if (!worker->loop.ok()) {
      workers_.clear();
      return false;
    }
    worker->dip_map = dip_map_;  // private copy; live changes arrive on wake
    workers_.push_back(std::move(worker));
  }

  t0_ = std::chrono::steady_clock::now();
  last_rx_ = last_tx_ = 0;
  last_stats_us_ = 0.0;
  running_.store(true, std::memory_order_release);
  runner_ = std::thread([this] {
    exec::ThreadPool pool(workers_.size());
    pool.parallel_for(workers_.size(), [this](std::size_t i) { serve(i); });
  });
  return true;
}

void MuxServer::shutdown() {
  stop_.store(true, std::memory_order_release);
  for (const auto& worker : workers_) worker->loop.wake();
}

void MuxServer::join() {
  if (runner_.joinable()) runner_.join();
  if (running_.exchange(false, std::memory_order_acq_rel) &&
      !opts_.stats_json_path.empty()) {
    telemetry::JsonExporter::write_file(opts_.stats_json_path, "duetd", &registry_, nullptr);
  }
}

Endpoint MuxServer::listen_endpoint() const {
  return workers_.empty() ? Endpoint{} : workers_[0]->sock.local();
}

std::size_t MuxServer::flow_table_size() const {
  std::size_t total = 0;
  for (const auto& worker : workers_) total += worker->smux.flow_table_size();
  return total;
}

double MuxServer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0_)
      .count();
}

void MuxServer::maybe_rebuild_fast(Worker& worker, double now) {
  if (!worker.fast_dirty) return;
  // No stateless engine admits nothing, and an empty table has nothing to
  // drop: the snapshot would come out empty again (a stateful deployment).
  if (worker.smux.stateless_engine() == nullptr && worker.fast.current()->empty()) {
    worker.fast_dirty = false;
    return;
  }
  // Between batches: this build never races pump() on this worker (same
  // thread), and the swap protocol covers external readers. A VIP whose old
  // map version is still draining is rejected as unsettled; staying dirty
  // lets the tick retry until it settles and is re-admitted.
  worker.fast_dirty = worker.fast.rebuild(worker.smux, now).rejected_unsettled > 0;
}

void MuxServer::fold_stats(Worker& worker) {
  const auto fold = [](StatCell& cell, std::uint64_t& folded, telemetry::Counter* out) {
    const std::uint64_t v = cell.get();
    if (v != folded) {
      out->inc(v - folded);
      folded = v;
    }
  };
  auto& s = worker.stats;
  auto& f = worker.folded;
  fold(s.rx_packets, f.rx_packets, tm_rx_packets_);
  fold(s.rx_bytes, f.rx_bytes, tm_rx_bytes_);
  fold(s.tx_packets, f.tx_packets, tm_tx_packets_);
  fold(s.tx_bytes, f.tx_bytes, tm_tx_bytes_);
  fold(s.rx_batches, f.rx_batches, tm_rx_batches_);
  fold(s.parse_failures, f.parse_failures, tm_parse_failures_);
  fold(s.unmapped_dip, f.unmapped_dip, tm_unmapped_dip_);
  fold(s.tx_drops, f.tx_drops, tm_tx_drops_);
  fold(s.fast_hits, f.fast_hits, tm_fast_hits_);
  fold(s.fast_misses, f.fast_misses, tm_fast_misses_);
  const std::uint64_t rebuilds = worker.fast.rebuilds();
  if (rebuilds != f.fast_rebuilds) {
    tm_fast_rebuilds_->inc(rebuilds - f.fast_rebuilds);
    f.fast_rebuilds = rebuilds;
  }
}

void MuxServer::serve(std::size_t index) {
  Worker& worker = *workers_[index];
  std::string thread_name = "duet-mux-";
  thread_name += std::to_string(index);
  name_this_thread(thread_name.c_str());
  if (opts_.pin_cpus) {
    // Best-effort: a refused pin (non-Linux, sandboxed cpuset) serves
    // unpinned — the fallback ISSUE'd for restricted environments.
    if (!pin_thread_to_cpu(index % online_cpus())) {
      DUET_LOG_INFO << "worker " << index << ": cpu pin unavailable, serving unpinned";
    }
  }
  // First snapshot before any packet, so a stateless deployment serves its
  // very first batch from the fast tier (a new worker starts dirty).
  maybe_rebuild_fast(worker, now_us());
  worker.loop.add(worker.sock.fd(), [this, &worker] { pump(worker, false); });
  const auto on_tick = [this, &worker] {
    // One clock read per tick; bounded incremental eviction (never a
    // full-table pass on the serving thread).
    const double now = now_us();
    maybe_rebuild_fast(worker, now);
    worker.smux.expire_flows_step(now, opts_.evict_scan_slots);
    fold_stats(worker);
    if (worker.index == 0) maybe_export_stats(now);
  };
  const auto on_wake = [this, &worker] {
    // Control-plane changes land here, on the serving thread, before the
    // woken round's batches — no lock on the packet path. A snapshot that a
    // change made wrong is rebuilt in the same call, so no batch is decided
    // by a fast tier older than the Smux replica it fronts.
    worker.stats.wakes.add(1);
    drain_updates(worker);
    maybe_rebuild_fast(worker, now_us());
  };
  worker.loop.run(stop_, opts_.tick_ms, on_tick, on_wake);
  // Drain: serve whatever the kernel already queued, then exit. Each pump
  // empties the socket, so the first empty read means the queue is flushed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(opts_.drain_wait_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pump(worker, true) == 0) break;
  }
  // Final fold: after this the shared registry holds this worker's exact
  // totals (join()'s quiescent-counters contract).
  fold_stats(worker);
}

std::size_t MuxServer::pump(Worker& worker, bool draining) {
  std::size_t total = 0;
  for (;;) {
    const std::size_t n = worker.io.recv_batch(worker.sock.fd(), worker.rx);
    if (n == 0) break;
    total += n;
    const double now = now_us();  // one clock read per batch

    // Parse pass: telemetry accumulated in locals, flushed once per batch.
    worker.pkts.clear();
    worker.rx_index.clear();
    std::uint64_t rx_bytes = 0;
    std::uint64_t parse_failures = 0;
    for (std::size_t i = 0; i < n; ++i) {
      rx_bytes += worker.rx[i].bytes.size();
      auto parsed = parse_packet(worker.rx[i].bytes);
      if (!parsed.has_value()) {
        ++parse_failures;
        continue;
      }
      worker.pkts.push_back(std::move(*parsed));
      worker.rx_index.push_back(static_cast<std::uint32_t>(i));
    }

    // Decision pass. The fast tier goes first: one direct-mapped probe per
    // packet against the worker's hot-VIP snapshot (hits are bit-identical
    // to the stateless engine's choice by construction — DESIGN.md §17);
    // the cold remainder goes through Smux::process_batch unchanged
    // (prefetched flow lookups, batched counters). Unknown VIPs come back
    // as 0.0.0.0 and are counted by the smux's unknown_vip.
    worker.chosen.resize(worker.pkts.size());
    std::uint64_t fast_hits = 0;
    std::uint64_t fast_misses = 0;
    const FastTierTable* fast = worker.fast.acquire(0);
    if (fast != nullptr && fast->empty()) {
      worker.fast.release(0);
      fast = nullptr;  // nothing admitted: skip the probe pass entirely
    }
    if (fast == nullptr) {
      worker.smux.process_batch(worker.pkts, worker.chosen, now);
    } else {
      worker.miss_pkts.clear();
      worker.miss_pos.clear();
      for (std::size_t k = 0; k < worker.pkts.size(); ++k) {
        const FiveTuple& t = worker.pkts[k].tuple();
        const Ipv4Address* dip = fast->lookup(t.dst.value(), opts_.hasher.hash(t));
        if (dip != nullptr) {
          worker.chosen[k] = *dip;
          ++fast_hits;
        } else {
          worker.miss_pos.push_back(static_cast<std::uint32_t>(k));
          worker.miss_pkts.push_back(worker.pkts[k]);
        }
      }
      worker.fast.release(0);
      fast_misses = worker.miss_pkts.size();
      if (!worker.miss_pkts.empty()) {
        worker.miss_chosen.resize(worker.miss_pkts.size());
        worker.smux.process_batch(worker.miss_pkts, worker.miss_chosen, now);
        for (std::size_t j = 0; j < worker.miss_pkts.size(); ++j) {
          worker.chosen[worker.miss_pos[j]] = worker.miss_chosen[j];
        }
      }
    }

    // Encap + forward pass.
    worker.tx.clear();
    std::uint64_t unmapped = 0;
    std::uint64_t encap_drops = 0;
    for (std::size_t k = 0; k < worker.pkts.size(); ++k) {
      const Ipv4Address dip = worker.chosen[k];
      if (dip == Ipv4Address{}) continue;
      const Endpoint* at = worker.dip_map.find(dip);
      if (at == nullptr) {
        ++unmapped;
        continue;
      }
      // Zero-copy forward: the outer header goes into the rx headroom.
      const RxPacket& p = worker.rx[worker.rx_index[k]];
      std::uint8_t* head = p.bytes.data() - worker.io.headroom();
      const std::size_t len = encapsulate_on_wire(
          p.bytes, EncapHeader{opts_.self, dip},
          std::span<std::uint8_t>(head, p.bytes.size() + kIpv4HeaderBytes));
      if (len == 0) {
        ++encap_drops;
        continue;
      }
      worker.tx.push_back(TxPacket{head, len, *at});
    }

    const std::size_t sent =
        worker.io.send_batch(worker.sock.fd(), worker.tx, draining ? 1 : 5);
    std::uint64_t tx_bytes = 0;
    for (std::size_t i = 0; i < sent; ++i) tx_bytes += worker.tx[i].len;

    // One telemetry flush per batch, into this worker's OWN cells (plain
    // load+store, one unshared cache line — no cross-worker contention, no
    // lock-prefixed RMW). The shared registry gets folded deltas on the
    // tick (fold_stats); the batch-fill histogram keeps its shared record
    // (one bucket increment per batch, not per packet).
    auto& st = worker.stats;
    st.rx_batches.add(1);
    tm_batch_fill_->record(static_cast<double>(n));
    st.rx_packets.add(n);
    st.rx_bytes.add(rx_bytes);
    if (parse_failures > 0) st.parse_failures.add(parse_failures);
    if (unmapped > 0) st.unmapped_dip.add(unmapped);
    st.tx_packets.add(sent);
    st.tx_bytes.add(tx_bytes);
    const std::uint64_t tx_drops = encap_drops + (worker.tx.size() - sent);
    if (tx_drops > 0) st.tx_drops.add(tx_drops);
    if (fast_hits > 0) st.fast_hits.add(fast_hits);
    if (fast_misses > 0) st.fast_misses.add(fast_misses);

    if (n < worker.io.batch()) break;  // short read: the socket is drained
  }
  return total;
}

std::vector<MuxServer::WorkerStatsSnapshot> MuxServer::worker_stats() const {
  std::vector<WorkerStatsSnapshot> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) {
    const auto& s = worker->stats;
    WorkerStatsSnapshot w;
    w.rx_packets = s.rx_packets.get();
    w.rx_bytes = s.rx_bytes.get();
    w.tx_packets = s.tx_packets.get();
    w.tx_bytes = s.tx_bytes.get();
    w.rx_batches = s.rx_batches.get();
    w.parse_failures = s.parse_failures.get();
    w.unmapped_dip = s.unmapped_dip.get();
    w.tx_drops = s.tx_drops.get();
    w.fast_hits = s.fast_hits.get();
    w.fast_misses = s.fast_misses.get();
    w.fast_rebuilds = worker->fast.rebuilds();
    w.wakes = s.wakes.get();
    out.push_back(w);
  }
  return out;
}

void MuxServer::maybe_export_stats(double now) {
  if (opts_.stats_interval_s <= 0.0) return;
  const double interval_us = opts_.stats_interval_s * 1e6;
  if (now - last_stats_us_ < interval_us) return;
  const double dt_s = (now - last_stats_us_) / 1e6;
  // Fan-in: one relaxed load per per-worker cell. The shared registry — and
  // its snapshot mutex — is never touched on this path.
  const std::vector<WorkerStatsSnapshot> per_worker = worker_stats();
  WorkerStatsSnapshot total;
  for (const WorkerStatsSnapshot& w : per_worker) {
    total.rx_packets += w.rx_packets;
    total.tx_packets += w.tx_packets;
    total.parse_failures += w.parse_failures;
    total.tx_drops += w.tx_drops;
    total.fast_hits += w.fast_hits;
    total.fast_misses += w.fast_misses;
    total.fast_rebuilds += w.fast_rebuilds;
  }
  if (opts_.print_stats) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "duetd t=%8.1fs  rx %10.0f pps  tx %10.0f pps  fast_hit %llu  "
                  "parse_fail %llu  tx_drops %llu",
                  now / 1e6, static_cast<double>(total.rx_packets - last_rx_) / dt_s,
                  static_cast<double>(total.tx_packets - last_tx_) / dt_s,
                  static_cast<unsigned long long>(total.fast_hits),
                  static_cast<unsigned long long>(total.parse_failures),
                  static_cast<unsigned long long>(total.tx_drops));
    DUET_LOG_INFO << line;
  }
  if (!opts_.stats_json_path.empty()) {
    // Light interval document straight from the per-worker cells, in the
    // exporter schema: totals plus one `interval.w<i>.*` row per worker. It
    // lives in its own registry, so the shared one is still untouched; the
    // full registry dump lands at join().
    telemetry::MetricRegistry doc;
    doc.gauge("interval.t_us").set(now);
    doc.gauge("interval.rx_pps").set(static_cast<double>(total.rx_packets - last_rx_) / dt_s);
    doc.gauge("interval.tx_pps").set(static_cast<double>(total.tx_packets - last_tx_) / dt_s);
    doc.counter("interval.fast_tier_hits").inc(total.fast_hits);
    doc.counter("interval.fast_tier_misses").inc(total.fast_misses);
    doc.counter("interval.fast_tier_rebuilds").inc(total.fast_rebuilds);
    for (std::size_t i = 0; i < per_worker.size(); ++i) {
      const WorkerStatsSnapshot& w = per_worker[i];
      std::string row = "interval.w";
      row += std::to_string(i);
      row += '.';
      doc.counter(row + "rx").inc(w.rx_packets);
      doc.counter(row + "tx").inc(w.tx_packets);
      doc.counter(row + "fast_hits").inc(w.fast_hits);
      doc.counter(row + "fast_misses").inc(w.fast_misses);
      doc.counter(row + "tx_drops").inc(w.tx_drops);
    }
    telemetry::JsonExporter::write_file(opts_.stats_json_path, "duetd", &doc, nullptr);
  }
  last_rx_ = total.rx_packets;
  last_tx_ = total.tx_packets;
  last_stats_us_ = now;
}

audit::SystemSnapshot MuxServer::audit_snapshot() const {
  audit::SystemSnapshot snap;
  snap.host_table_capacity = config_.host_table_capacity;
  snap.aggregate = opts_.vip_aggregate;
  snap.live_smux_count = workers_.size();
  for (const auto& worker : workers_) {
    audit::SmuxSnapshot s;
    s.id = static_cast<std::uint32_t>(worker->index);
    s.alive = true;
    s.vip_count = worker->smux.vip_count();
    snap.smuxes.push_back(s);
  }
  for (std::size_t i = 0; i < vips_.size(); ++i) {
    const VipRecord& rec = vips_[i];
    audit::VipSnapshot v;
    v.id = static_cast<VipId>(i);
    v.vip = rec.vip;
    v.dip_count = rec.dips.size();
    v.weights = rec.weights;
    v.on_smux_list = true;  // a pure-SMux deployment: every VIP on the list
    v.aggregate_covers = opts_.vip_aggregate.contains(rec.vip);
    for (const auto& worker : workers_) {
      if (worker->smux.has_vip(rec.vip)) ++v.live_smuxes_holding;
    }
    snap.vips.push_back(std::move(v));
  }
  return snap;
}

}  // namespace duet::runtime
