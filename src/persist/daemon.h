// duetd — the durable controller daemon.
//
// One process wires together the whole Duet control/data split:
//   * a PersistentController (persist/store.h): every mutation write-ahead
//     journaled, periodic snapshots, crash recovery with a boot audit;
//   * a MuxServer (runtime/mux_server.h): the live SMux worker pool on a real
//     UDP socket, kept in sync with the controller's VIP→DIP state via the
//     live-update queues its workers apply as soon as they are woken;
//   * a FakeDipPool: in-process echo backends standing in for real DIPs —
//     every DIP the controller knows gets a loopback identity endpoint on
//     the pool's one socket, mapped into the serving path (runtime-local
//     state, deliberately NOT journaled: on restart the pool hands out
//     identities afresh and the mapping is rebuilt from the recovered
//     controller);
//   * an ops socket (persist/ctl_protocol.h): duetctl's add-vip / add-dip /
//     migrate / stats / audit / snapshot / drain subcommands, one request
//     per connection, served sequentially so mutations are totally ordered.
//
// Mutation path: parse + validate the request -> build the Op ->
// PersistentController::apply (journal durably, THEN mutate) -> render the
// VIP's new pool into the MuxServer. A crash at any point leaves the journal
// holding exactly the acknowledged prefix; the serving path is rebuilt from
// the recovered controller on restart, so it can never disagree with
// recovered state for longer than a boot.
//
// Shutdown: stop(snapshot=true) is the SIGTERM path — snapshot first (so the
// next boot replays nothing), then drain the serving path. kill -9 is the
// *tested* path: recovery replays the op log and must land bit-identical
// (tests/persist_test.cc, scripts/daemon_smoke.sh).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "duet/config.h"
#include "persist/ctl_protocol.h"
#include "persist/store.h"
#include "runtime/event_loop.h"
#include "runtime/fake_dip.h"
#include "runtime/mux_server.h"
#include "topo/fattree.h"

namespace duet::persist {

struct DuetdOptions {
  std::string data_dir;     // must exist; snapshot/oplog/socket live here
  std::string socket_path;  // "" = data_dir + "/duetd.sock"
  FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
  std::uint64_t snapshot_every_ops = 256;  // 0 = manual `duetctl snapshot` only

  // The modeled fabric the controller plans against. MUST stay identical
  // across restarts of one data_dir: recovery re-drives the deterministic
  // controller from these construction inputs.
  std::size_t containers = 2, tors = 4, cores = 2;
  std::uint64_t seed = 1;
  SmuxEngine engine = SmuxEngine::kStateful;

  // Serving path.
  std::uint16_t port = 0;  // UDP listen port (0 = kernel-assigned)
  std::size_t mux_workers = 1;
  // Pin worker i to CPU (i mod online CPUs); see MuxServerOptions::pin_cpus.
  bool pin_cpus = false;
};

class Duetd {
 public:
  explicit Duetd(DuetdOptions options);
  ~Duetd();
  Duetd(const Duetd&) = delete;
  Duetd& operator=(const Duetd&) = delete;

  // Recovers (or freshly initializes) the store, rebuilds the serving path
  // from the recovered state, starts the worker pool, the echo DIPs, and the
  // ops socket. False with *error set on any failure — including a recovered
  // state that fails its boot audit.
  bool start(std::string* error);

  // True once a `drain` request has been accepted; the caller's main loop
  // exits and calls stop().
  bool drain_requested() const noexcept {
    return drain_.load(std::memory_order_acquire);
  }

  // Stops the ops socket, optionally snapshots (the SIGTERM path — the next
  // boot then replays zero ops), and drains the serving path. Idempotent.
  void stop(bool snapshot);

  // Handles one decoded ops request. Public so in-process tests can drive
  // the full command surface without a socket. Thread-safe (one op at a
  // time).
  CtlResponse handle(const std::vector<std::string>& argv);

  runtime::Endpoint listen_endpoint() const { return mux_->listen_endpoint(); }
  const std::string& socket_path() const noexcept { return socket_path_; }
  PersistentController& store() noexcept { return *store_; }
  runtime::MuxServer& mux() noexcept { return *mux_; }
  runtime::FakeDipPool& dip_pool() noexcept { return dips_; }

 private:
  // Accepts one ops connection and answers its one request. Ops thread.
  void serve_one();
  // Renders the controller's current pool for `vip` into the MuxServer
  // (update or removal), adding echo identities for any new DIPs. Wakes
  // each mux worker once, whatever the DIP count.
  void push_vip(Ipv4Address vip);
  // Journal clock for new ops: monotone continuation of the recovered clock.
  double next_t_us();
  CtlResponse apply_checked(Op op, std::string ok_text);

  DuetdOptions opts_;
  std::string socket_path_;
  std::optional<FatTree> fabric_;
  std::unique_ptr<PersistentController> store_;
  std::unique_ptr<runtime::MuxServer> mux_;
  runtime::FakeDipPool dips_;
  std::unordered_map<Ipv4Address, runtime::Endpoint> dip_at_;

  std::mutex op_mu_;  // serializes handle() bodies (ops total order)
  double base_clock_us_ = 0.0;
  std::chrono::steady_clock::time_point t0_{};

  int listen_fd_ = -1;
  // The ops thread's loop: the listening socket plus a wake channel, so
  // stop() interrupts the wait at once instead of polling a flag.
  runtime::EventLoop ops_loop_;
  std::thread accept_thread_;
  std::atomic<bool> stop_accept_{false};
  std::atomic<bool> drain_{false};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace duet::persist
