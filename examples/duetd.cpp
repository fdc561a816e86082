// duetd — the durable Duet controller daemon (persist/daemon.h).
//
//   duetd --dir DATADIR [options]
//
// Runs the journaled controller plus the live SMux worker pool until a
// signal or a `duetctl drain --socket ...` request. Every mutation arriving
// on the ops socket is write-ahead journaled to DATADIR before it is
// applied; on restart the daemon recovers snapshot + op log, audits the
// recovered state against every design invariant, and rebuilds the serving
// path — `kill -9` at any point is safe (and is the tested path:
// scripts/daemon_smoke.sh).
//
// Options:
//   --dir PATH            data directory (required; must exist)
//   --socket PATH         ops socket (default DATADIR/duetd.sock)
//   --port P              UDP serving port (default 0 = kernel-assigned)
//   --workers N           SMux worker count (default 1)
//   --fsync none|every    journal durability (default every = WAL semantics)
//   --snapshot-every N    auto-snapshot after N ops (default 256, 0 = manual)
//   --engine stateful|stateless   SMux decision engine (default stateful)
//   --seed S              flow-hash + assignment seed (default 1; must be
//                         stable across restarts of one data dir)
//   --duration S          exit (with a shutdown snapshot) after S seconds
//   --pin-cpus            pin worker i to CPU (i mod online CPUs)
//
// SIGTERM/SIGINT snapshot first, then drain — the next boot replays zero
// ops. SIGKILL recovery replays the op log instead; both land in the same
// state.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "persist/daemon.h"
#include "util/logging.h"

using namespace duet;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: duetd --dir PATH [--socket PATH] [--port P] [--workers N]\n"
               "             [--fsync none|every] [--snapshot-every N]\n"
               "             [--engine stateful|stateless] [--seed S] [--duration S]\n"
               "             [--pin-cpus]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  persist::DuetdOptions opts;
  double duration_s = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    // Valueless flags first; everything else is a key/value pair.
    if (key == "--pin-cpus") {
      opts.pin_cpus = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (key == "--dir") {
      opts.data_dir = value;
    } else if (key == "--socket") {
      opts.socket_path = value;
    } else if (key == "--port") {
      opts.port = static_cast<std::uint16_t>(std::strtoul(value, nullptr, 10));
    } else if (key == "--workers") {
      opts.mux_workers = std::strtoul(value, nullptr, 10);
    } else if (key == "--fsync") {
      if (!persist::parse_fsync_policy(value, &opts.fsync)) return usage();
    } else if (key == "--snapshot-every") {
      opts.snapshot_every_ops = std::strtoull(value, nullptr, 10);
    } else if (key == "--engine") {
      if (!parse_smux_engine(value, &opts.engine)) return usage();
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--duration") {
      duration_s = std::strtod(value, nullptr);
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return usage();
    }
  }
  if (opts.data_dir.empty()) return usage();

  persist::Duetd daemon{opts};
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "duetd: %s\n", error.c_str());
    return 1;
  }
  const auto& rec = daemon.store().recovery();
  std::printf("duetd: %s (snapshot seq %llu + %llu ops%s, %.2f ms, audit %s)\n",
              rec.recovered ? "recovered" : "fresh start",
              static_cast<unsigned long long>(rec.snapshot_seq),
              static_cast<unsigned long long>(rec.replayed),
              rec.truncated_tail ? ", torn tail cut" : "", rec.recover_ms,
              rec.audit_summary.c_str());
  std::printf("duetd: serving 127.0.0.1:%u | ops socket %s | fsync %s\n",
              unsigned{daemon.listen_endpoint().port}, daemon.socket_path().c_str(),
              persist::to_string(opts.fsync));
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const auto t0 = std::chrono::steady_clock::now();
  while (g_stop == 0 && !daemon.drain_requested()) {
    if (duration_s > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() >=
            duration_s) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // SIGTERM path: snapshot BEFORE the drain, so a clean shutdown's next boot
  // replays nothing. (kill -9 skips all of this; recovery replays the log.)
  std::printf("duetd: snapshotting and draining\n");
  daemon.stop(/*snapshot=*/true);
  std::printf("duetd: stopped at seq %llu (snapshot seq %llu)\n",
              static_cast<unsigned long long>(daemon.store().last_seq()),
              static_cast<unsigned long long>(daemon.store().snapshot_seq()));
  return 0;
}
