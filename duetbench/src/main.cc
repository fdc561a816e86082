// duetbench: the repository's end-to-end and per-layer benchmark.
//
//   duetbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//             [--spans FILE]
//   duetbench --check-oracle
//
// Every workload deploys an in-process persist::Duetd on a fresh data dir
// under DIR, serves a fixed-rate open loop through it beside a seeded
// stream of ops on its ops socket, restarts it from the same dir, and
// replans a `small`-scale fabric through persist::PersistentController.
// The workloads differ in what they weigh (README.md says why each exists).
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}; end-to-end metrics without tracing, per-layer metrics with.
// Exit 0 when every correctness check held, 1 when one failed, 2 when the
// workload could not run (then no result line is printed).
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "duet/controller.h"
#include "exec/thread_pool.h"
#include "layers.h"
#include "ops.h"
#include "persist/ctl_protocol.h"
#include "persist/daemon.h"
#include "plan.h"
#include "runtime/udp.h"
#include "trace.h"
#include "util.h"
#include "util/logging.h"

namespace duetbench {
namespace {

using duet::Ipv4Address;
using duet::SmuxEngine;
using duet::runtime::Endpoint;
using duet::runtime::UdpSocket;

struct Workload {
  const char* name;
  SmuxEngine engine;
  bool pin_half_stateful;  // set-engine stateful on every other served VIP
  std::size_t workers;
  std::size_t vips;
  std::size_t dips_per_vip;
  TrafficSpec traffic;     // vips and seed are filled in per run
  OpMix ops;
  // Planning passes over the trace after serving; with more than one, the
  // last pass also reopens the store, replaying the epochs.
  std::size_t plan_passes;
};

// Rates stay at 5 kpps per mux worker. Each datagram wakes three threads
// (mux worker, echo DIP, client); when the host steals vCPUs those wake-ups
// slow down, and at 30 kpps one worker then fell behind (p50 RTT 2.8 ms),
// at 10 kpps its p50 still varied 121-338 us over ten runs.
const Workload kWorkloads[] = {
    {"web_mice", SmuxEngine::kStateful, false, 1, 64, 8,
     TrafficSpec{{}, 5e3, 128, 4, 64, 0}, OpMix{100.0, false, {}}, 1},
    {"hot_stateless", SmuxEngine::kStateless, false, 2, 4, 16,
     TrafficSpec{{}, 10e3, 1400, 0, 256, 0}, OpMix{100.0, false, {}}, 1},
    {"ops_churn", SmuxEngine::kStateless, true, 1, 64, 8,
     TrafficSpec{{}, 5e3, 128, 0, 1024, 0}, OpMix{150.0, true, {}}, 1},
    {"epoch_replan", SmuxEngine::kStateful, false, 1, 16, 4,
     TrafficSpec{{}, 5e3, 128, 0, 256, 0}, OpMix{100.0, false, {}}, 4},
};

// The data dirs live in the checkout, on whatever disk it is on; there a
// record fsync took 0.3-0.7 ms and its tail followed other tenants' I/O.
// Journals are written without the device flush, as on the tmpfs a
// deployment's benchmark would use; OpLog::append with the flush is timed
// separately in the traced run (persist.append_us).
constexpr auto kFsync = duet::persist::FsyncPolicy::kNone;

constexpr int kSetups = 5;    // setup_s is the median of these
constexpr int kRestarts = 5;  // persist.restart_s is the fastest of these
constexpr double kLingerS = 0.2;
// Latency percentiles are taken per slice of the window (a fifth of a
// second each for RTTs in a 10 s run) and the lowest slice is reported; see
// lowest_slice_quantile.
constexpr std::size_t kRttSlices = 50;
constexpr std::size_t kOpSlices = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  std::string spans;
  bool check_oracle = false;
};

[[noreturn]] void cannot_run(const std::string& why) {
  std::fprintf(stderr, "duetbench: cannot run: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) cannot_run("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(value().c_str(), nullptr);
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--dir") a.dir = value();
    else if (k == "--spans") a.spans = value();
    else if (k == "--check-oracle") a.check_oracle = true;
    else cannot_run("unknown argument " + k);
  }
  if (!a.check_oracle && (a.dir.empty() || !(a.seconds > 0))) cannot_run("need --dir and --seconds > 0");
  return a;
}

// ---- result line ----------------------------------------------------------

struct Result {
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // failed correctness checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, const char* unit) {
    metrics.push_back(Metric{std::move(name), value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void print() const {
    for (const auto& p : problems) std::fprintf(stderr, "duetbench: check failed: %s\n", p.c_str());
    std::string line = "{\"correct\": ";
    line += problems.empty() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit);
      line += buf;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
};

// ---- the deployment ---------------------------------------------------------

std::vector<ServedVip> make_served(const Workload& w) {
  std::vector<ServedVip> served;
  for (std::size_t i = 0; i < w.vips; ++i) {
    ServedVip s;
    s.vip = Ipv4Address{100, 1, static_cast<std::uint8_t>(i / 250),
                        static_cast<std::uint8_t>(i % 250 + 1)};
    for (std::size_t j = 0; j < w.dips_per_vip; ++j) {
      s.dips.push_back(Ipv4Address{10, static_cast<std::uint8_t>(100 + i / 250),
                                   static_cast<std::uint8_t>(i % 250),
                                   static_cast<std::uint8_t>(j + 1)});
    }
    served.push_back(std::move(s));
  }
  return served;
}

struct Deployment {
  std::optional<ScratchDir> dir;  // declared first: removed after the daemon stops
  duet::persist::DuetdOptions opts;
  std::unique_ptr<duet::persist::Duetd> daemon;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { stop(); }

  void stop() {
    if (daemon) daemon->stop(false);
  }
  bool boot(std::string* error) {
    daemon.reset();
    daemon = std::make_unique<duet::persist::Duetd>(opts);
    return daemon->start(error);
  }
};

std::vector<duet::runtime::MuxServer::WorkerStatsSnapshot> stats(Deployment& d) {
  return d.daemon->mux().worker_stats();
}

std::uint64_t sum_of(const std::vector<duet::runtime::MuxServer::WorkerStatsSnapshot>& ws,
                     std::uint64_t duet::runtime::MuxServer::WorkerStatsSnapshot::*field) {
  std::uint64_t total = 0;
  for (const auto& w : ws) total += w.*field;
  return total;
}

// Fresh data dir, daemon boot, VIP install over the ops socket, and a
// warm-up until every served VIP echoes (and, for a stateless deployment,
// until the fast tier serves them).
bool deploy(Deployment& dep, const Workload& w, const std::vector<ServedVip>& served,
            const Args& a, UdpSocket& probe, std::string* error) {
  auto dir = ScratchDir::make(a.dir);
  if (!dir.has_value()) {
    *error = "cannot create a data dir under " + a.dir;
    return false;
  }
  dep.dir.emplace(std::move(*dir));
  dep.opts.data_dir = dep.dir->path();
  // A relative path keeps the socket under sun_path's 108 bytes wherever
  // the checkout lives.
  dep.opts.socket_path = dep.dir->path() + "/ctl.sock";
  if (dep.opts.socket_path.size() >= 100) {
    *error = "ops socket path too long: " + dep.opts.socket_path;
    return false;
  }
  dep.opts.engine = w.engine;
  dep.opts.mux_workers = w.workers;
  dep.opts.seed = a.seed;
  dep.opts.fsync = kFsync;
  if (!dep.boot(error)) return false;

  duet::persist::CtlClient ctl(dep.opts.socket_path);
  for (std::size_t i = 0; i < served.size(); ++i) {
    std::vector<std::string> argv{"add-vip", served[i].vip.to_string()};
    for (const auto d : served[i].dips) argv.push_back(d.to_string());
    auto r = ctl.request(argv);
    if (!r.has_value() || !r->ok()) {
      *error = "add-vip " + argv[1] + " refused: " + (r ? r->text : "no reply");
      return false;
    }
    if (w.pin_half_stateful && i % 2 == 1) {
      r = ctl.request({"set-engine", served[i].vip.to_string(), "stateful"});
      if (!r.has_value() || !r->ok()) {
        *error = "set-engine refused: " + (r ? r->text : "no reply");
        return false;
      }
    }
  }
  const Endpoint mux = dep.daemon->listen_endpoint();
  for (const auto& s : served) {
    if (probe_until_echo(probe, mux, s.vip, 2000.0) < 0) {
      *error = "served VIP " + s.vip.to_string() + " never echoed";
      return false;
    }
  }
  if (w.engine == SmuxEngine::kStateless) {
    using WS = duet::runtime::MuxServer::WorkerStatsSnapshot;
    for (int round = 0;; ++round) {
      if (round == 400) {
        *error = "the fast tier never admitted the served VIPs";
        return false;
      }
      const auto before = stats(dep);
      for (const auto& s : served) (void)probe_until_echo(probe, mux, s.vip, 500.0);
      const auto after = stats(dep);
      if (sum_of(after, &WS::fast_misses) == sum_of(before, &WS::fast_misses) &&
          sum_of(after, &WS::fast_hits) > sum_of(before, &WS::fast_hits)) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  return true;
}

// Client source sockets, spread evenly over the mux workers. The kernel
// shards a worker's SO_REUSEPORT group by 4-tuple, so the spread is checked
// from the workers' rx counters rather than left to port luck.
std::vector<UdpSocket> pick_sockets(Deployment& dep, std::size_t workers, Ipv4Address vip,
                                    std::string* error) {
  const std::size_t nproc = std::max<std::size_t>(1, duet::runtime::online_cpus());
  const std::size_t want = std::max<std::size_t>(1, std::min(nproc, 2 * workers));
  const std::size_t quota = std::max<std::size_t>(1, want / workers);
  std::vector<UdpSocket> kept;
  std::vector<std::size_t> per_worker(workers, 0);
  const Endpoint mux = dep.daemon->listen_endpoint();
  for (int tries = 0; tries < 64 && kept.size() < want; ++tries) {
    auto s = UdpSocket::bind(Endpoint{Ipv4Address{127, 0, 0, 1}, 0});
    if (!s) break;
    if (workers == 1) {
      kept.push_back(std::move(*s));
      continue;
    }
    const auto before = stats(dep);
    if (probe_until_echo(*s, mux, vip, 500.0) < 0) continue;
    const auto after = stats(dep);
    for (std::size_t w = 0; w < workers && w < after.size(); ++w) {
      if (after[w].rx_packets > before[w].rx_packets) {
        if (per_worker[w] < quota) {
          ++per_worker[w];
          kept.push_back(std::move(*s));
        }
        break;
      }
    }
  }
  if (kept.size() < want) {
    *error = "could not spread the client's sockets over the mux workers";
    kept.clear();
  }
  // Late echoes of the placement probes must not reach the client.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (const auto& s : kept) {
    std::uint8_t buf[2048];
    while (::recv(s.fd(), buf, sizeof(buf), 0) > 0) {
    }
  }
  return kept;
}

// ---- the serving window -----------------------------------------------------

struct ServeWindow {
  ClientResult client;             // the (traced, in a traced run) measurement
  ClientResult client_untraced;    // traced run only: the first, untraced half
  OpsResult ops;
  double sut_cpu_s = 0.0;
  std::vector<duet::runtime::MuxServer::WorkerStatsSnapshot> ws0, ws_mid, ws1;
};

ServeWindow serve(Deployment& dep, OpenLoopClient& client, UdpSocket& probe,
                  const std::vector<OpStep>& steps, double pps, double seconds,
                  Tracer& tracer) {
  ServeWindow out;
  const auto count = static_cast<std::uint64_t>(std::llround(pps * seconds));
  const Endpoint mux = dep.daemon->listen_endpoint();
  Tracer off(false);
  const std::uint64_t start = now_ns() + 2'000'000;
  out.ws0 = stats(dep);
  const double proc0 = process_cpu_s();
  const double main0 = thread_cpu_s();

  std::thread traffic([&] {
    if (!tracer.enabled()) {
      out.client = client.run(start, 0, count, kLingerS, off);
      return;
    }
    // Traced run: the first half untraced, the second traced, so the
    // tracing overhead is measured inside one run.
    const std::uint64_t half = count / 2;
    out.client_untraced = client.run(start, 0, half, kLingerS, off);
    out.client = client.run(now_ns() + 1'000'000, half, count - half, kLingerS, tracer);
  });
  std::thread ops([&] {
    out.ops = drive_ops(steps, dep.opts.socket_path, probe, mux, start, &client, tracer);
  });
  const auto mid = start + static_cast<std::uint64_t>(seconds * 0.5e9);
  while (now_ns() < mid) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  out.ws_mid = stats(dep);
  traffic.join();
  ops.join();
  out.ws1 = stats(dep);
  out.sut_cpu_s = (process_cpu_s() - proc0) - (thread_cpu_s() - main0) -
                  out.client.thread_cpu_s - out.client_untraced.thread_cpu_s -
                  out.ops.thread_cpu_s;
  return out;
}

// Switch ids a served VIP can migrate to on duetd's fabric, found on a
// twin of its controller.
std::vector<std::uint32_t> migrate_targets(const ServedVip& vip, std::uint64_t seed) {
  const auto fabric = duet::build_fattree(duet::FatTreeParams::scaled(2, 4, 2));
  duet::DuetController twin(fabric, duet::DuetConfig{}, duet::FlowHasher{seed}, seed);
  const auto& tors = fabric.tors;
  twin.deploy_smuxes({tors.front(), tors[tors.size() / 2], tors.back()},
                     duet::Ipv4Prefix{Ipv4Address{100, 0, 0, 0}, 8});
  twin.add_vip(vip.vip, vip.dips);
  std::vector<std::uint32_t> ok;
  for (std::uint32_t sw = 0; sw < fabric.topo.switch_count(); ++sw) {
    if (twin.migrate_vip(vip.vip, sw)) ok.push_back(sw);
    twin.migrate_vip(vip.vip, std::nullopt);
  }
  return ok;
}

double frac(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// ---- one run ------------------------------------------------------------------

int run(const Args& a) {
  const Workload* wp = nullptr;
  for (const auto& w : kWorkloads) {
    if (a.workload == w.name) wp = &w;
  }
  if (wp == nullptr) cannot_run("unknown workload " + a.workload);
  const Workload& w = *wp;
  Tracer tracer(a.trace);
  Result res;

  // Inputs, all from --seed, generated before anything is timed.
  const auto served = make_served(w);
  TrafficSpec spec = w.traffic;
  for (const auto& s : served) spec.vips.push_back(s.vip);
  spec.seed = a.seed;
  OpMix mix = w.ops;
  if (mix.full) mix.migrate_targets = migrate_targets(served[0], a.seed);
  const auto steps = make_op_stream(mix, served, a.seconds, a.seed);
  const PlanInputs plan = make_plan_inputs();

  auto probe = UdpSocket::bind(Endpoint{Ipv4Address{127, 0, 0, 1}, 0});
  if (!probe) cannot_run("cannot bind a loopback UDP socket");

  // Set-up, several times; the last deployment is measured.
  std::vector<double> setup_s;
  auto dep = std::make_unique<Deployment>();
  for (int i = 0; i < kSetups; ++i) {
    dep = std::make_unique<Deployment>();
    std::string error;
    const std::uint64_t t0 = now_ns();
    if (!deploy(*dep, w, served, a, *probe, &error)) cannot_run(error);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::string error;
  auto sockets = pick_sockets(*dep, w.workers, served[0].vip, &error);
  if (sockets.empty()) cannot_run(error);
  OpenLoopClient client(spec, std::move(sockets), dep->daemon->listen_endpoint());

  const ServeWindow sw = serve(*dep, client, *probe, steps, spec.pps, a.seconds, tracer);
  const ClientResult& c = sw.client;
  if (c.sent == 0) cannot_run("the client could not send");
  using WS = duet::runtime::MuxServer::WorkerStatsSnapshot;
  const std::uint64_t parse_failures =
      sum_of(sw.ws1, &WS::parse_failures) - sum_of(sw.ws0, &WS::parse_failures);
  res.check(c.integrity_failures + sw.client_untraced.integrity_failures == 0,
            "echoes failed the byte comparison");
  res.check(c.remap_violations + sw.client_untraced.remap_violations == 0,
            "flows moved to another DIP without a DIP removal");
  res.check(parse_failures == 0, "the mux failed to parse datagrams");
  for (const auto& e : sw.ops.errors) std::fprintf(stderr, "duetbench: op failure: %s\n", e.c_str());

  // Restart from the same data dir, several times.
  std::vector<std::pair<Ipv4Address, std::vector<Ipv4Address>>> before;
  {
    const auto& ctl = dep->daemon->store().controller();
    for (const auto v : ctl.vip_addresses()) before.emplace_back(v, ctl.dips_of(v));
    std::sort(before.begin(), before.end());
  }
  dep->stop();
  const std::size_t flow_entries = dep->daemon->mux().flow_table_size();
  std::vector<double> restart_s;
  std::vector<double> recover_ms;
  std::uint64_t replayed = 0;
  for (int i = 0; i < kRestarts; ++i) {
    const std::uint64_t t0 = now_ns();
    if (!dep->boot(&error)) {
      res.check(false, "restart failed: " + error);
      break;
    }
    if (probe_until_echo(*probe, dep->daemon->listen_endpoint(), served[0].vip, 2000.0) < 0) {
      res.check(false, "no echo after restart");
      break;
    }
    restart_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    const auto& rec = dep->daemon->store().recovery();
    recover_ms.push_back(rec.recover_ms);
    replayed = rec.replayed;
    res.check(rec.audit_summary == "clean", "boot audit after restart: " + rec.audit_summary);
    std::vector<std::pair<Ipv4Address, std::vector<Ipv4Address>>> after;
    const auto& ctl = dep->daemon->store().controller();
    for (const auto v : ctl.vip_addresses()) after.emplace_back(v, ctl.dips_of(v));
    std::sort(after.begin(), after.end());
    res.check(after == before, "restart recovered a different VIP set or pools");
    if (i + 1 < kRestarts) dep->stop();
  }

  // Control-path probes on the restarted daemon (traced run).
  double ping_us = 0.0;
  double snapshot_ms = 0.0;
  if (a.trace && !restart_s.empty()) {
    duet::persist::CtlClient ctl(dep->opts.socket_path);
    std::vector<double> us;
    SpanScope whole(tracer, "probe.ctl", 0);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t id = tracer.next_id();
      SpanScope s(tracer, "ctl.ping", id, whole.handle());
      const std::uint64_t t0 = now_ns();
      const auto r = ctl.request({"ping"});
      res.check(r.has_value() && r->ok(), "ping refused");
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    ping_us = median(us);
    dep->stop();  // no op may race the snapshots below
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t id = tracer.next_id();
      SpanScope s(tracer, "persist.snapshot", id, whole.handle());
      const std::uint64_t t0 = now_ns();
      res.check(dep->daemon->store().snapshot_now(), "snapshot_now failed");
      ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    snapshot_ms = median(ms);
  }
  dep.reset();

  std::vector<PlanPass> passes;
  for (std::size_t i = 0; i < w.plan_passes; ++i) {
    const bool reopen = w.plan_passes > 1 && i + 1 == w.plan_passes;
    passes.push_back(run_plan_pass(plan, a.dir, kFsync, reopen, tracer));
    if (!passes.back().error.empty()) {
      res.check(false, passes.back().error);
      break;
    }
  }
  // Each sticky epoch's cost is its cheapest pass (the same work every
  // pass; interference only adds), and plan.epoch_cpu_s the median over
  // epochs.
  std::vector<double> epoch_cpu_s = passes[0].sticky_epoch_cpu_s;
  std::vector<double> epoch_wall_s;
  for (const auto& p : passes) {
    for (std::size_t e = 0; e < epoch_cpu_s.size() && e < p.sticky_epoch_cpu_s.size(); ++e) {
      epoch_cpu_s[e] = std::min(epoch_cpu_s[e], p.sticky_epoch_cpu_s[e]);
    }
    epoch_wall_s.insert(epoch_wall_s.end(), p.sticky_epoch_s.begin(), p.sticky_epoch_s.end());
    res.check(p.hmux_frac == passes[0].hmux_frac && p.shuffled_frac == passes[0].shuffled_frac &&
                  p.smuxes == passes[0].smuxes,
              "planning outputs differ between passes over the same inputs");
  }
  const PlanPass& p0 = passes[0];
  const auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };

  // Outcomes counted against attempts.
  const std::uint64_t lost = c.lost() + sw.client_untraced.lost();
  res.attempted = c.scheduled + sw.client_untraced.scheduled + sw.ops.attempted +
                  plan.demands.size() * passes.size();
  res.failed = lost + c.send_failures + sw.client_untraced.send_failures + c.integrity_failures +
               sw.client_untraced.integrity_failures + c.remap_violations +
               sw.client_untraced.remap_violations + sw.ops.failed;
  std::fprintf(stderr,
               "duetbench: %s seed %llu: %llu datagrams (%llu lost), %llu ops (%llu failed), "
               "%zu plan passes; %llu corrupt echoes, %llu remaps\n",
               w.name, static_cast<unsigned long long>(a.seed),
               static_cast<unsigned long long>(c.scheduled + sw.client_untraced.scheduled),
               static_cast<unsigned long long>(lost),
               static_cast<unsigned long long>(sw.ops.attempted),
               static_cast<unsigned long long>(sw.ops.failed), passes.size(),
               static_cast<unsigned long long>(c.integrity_failures + sw.client_untraced.integrity_failures),
               static_cast<unsigned long long>(c.remap_violations + sw.client_untraced.remap_violations));

  const double sut_cpu_us_per_pkt =
      sw.sut_cpu_s * 1e6 / static_cast<double>(c.received + sw.client_untraced.received);

  if (!a.trace) {
    res.add("setup_s", median(setup_s), "s");
    res.add("sut_cpu_us_per_pkt", sut_cpu_us_per_pkt, "us");
    res.add("vip_ready_p50_ms", median(sw.ops.ready_ms), "ms");
    res.add("hmux_traffic_frac", mean(p0.hmux_frac), "ratio");
    res.add("shuffled_frac", mean(p0.shuffled_frac), "ratio");
    res.add("smuxes_needed", *std::max_element(p0.smuxes.begin(), p0.smuxes.end()), "count");
    for (const auto& m : res.metrics) {
      res.check(std::isfinite(m.value) && m.value > 0, m.name + " was not measured");
    }
    res.print();
    return res.problems.empty() ? 0 : 1;
  }

  // ---- traced run: per-layer metrics ----------------------------------------
  const std::size_t batches = probe_datapath(spec, served, w.engine, 1000, tracer);
  res.check(batches > 0, "the data-path probe failed");
  const double lag_ms = probe_update_lag_ms(w.engine, 20, a.seed, tracer);
  res.check(lag_ms >= 0, "the update-lag probe failed");
  const double append_us = probe_append_us(steps, a.dir, 200, tracer);
  res.check(append_us >= 0, "the op-log probe failed");
  // The twin sees the full op mix on every workload, so every mutator is timed.
  OpMix twin_mix{100.0, true, migrate_targets(served[0], a.seed)};
  const auto apply_us = probe_controller_apply(
      served, w.engine, w.pin_half_stateful, make_op_stream(twin_mix, served, 2.0, a.seed),
      a.seed, tracer);
  const PlanProbe pp = probe_plan(plan, 8, tracer);
  res.check(pp.audit_clean, "the planning twin failed its audit");
  const std::string tree = tracer.check();
  res.check(tree.empty(), "span tree: " + tree);
  if (!a.spans.empty() && !tracer.write(a.spans)) {
    std::fprintf(stderr, "duetbench: could not write spans to %s\n", a.spans.c_str());
  }

  const auto self = tracer.self_times();
  const double probe_pkts = static_cast<double>(std::max<std::size_t>(1, batches) * kProbeBatch);
  const auto per_pkt = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.self_ns / probe_pkts;
  };
  const double send = per_pkt("runtime.send_batch");
  const double recv = per_pkt("runtime.recv_batch");
  const double parse = per_pkt("net.parse");
  const double encap = per_pkt("net.encap");
  const double hash = per_pkt("net.hash");
  const double lookup = per_pkt("fast_tier.lookup");
  const double decide = per_pkt("smux.decide");

  res.add("runtime.send_ns_per_pkt", send, "ns");
  res.add("runtime.recv_ns_per_pkt", recv, "ns");
  res.add("runtime.batch_fill",
          frac(sum_of(sw.ws1, &WS::rx_packets) - sum_of(sw.ws0, &WS::rx_packets),
               sum_of(sw.ws1, &WS::rx_batches) - sum_of(sw.ws0, &WS::rx_batches)),
          "pkts/batch");
  std::uint64_t rx_total = 0;
  std::uint64_t rx_max = 0;
  for (std::size_t i = 0; i < sw.ws1.size(); ++i) {
    const std::uint64_t rx = sw.ws1[i].rx_packets - sw.ws0[i].rx_packets;
    rx_total += rx;
    rx_max = std::max(rx_max, rx);
  }
  res.add("runtime.worker_rx_share_max", frac(rx_max, rx_total), "ratio");
  res.add("net.parse_ns_per_pkt", parse, "ns");
  res.add("net.encap_ns_per_pkt", encap, "ns");
  res.add("net.hash_ns_per_pkt", hash, "ns");
  res.add("fast_tier.lookup_ns_per_pkt", lookup, "ns");
  const auto hit_frac = [&](const auto& from, const auto& to) {
    const std::uint64_t h = sum_of(to, &WS::fast_hits) - sum_of(from, &WS::fast_hits);
    const std::uint64_t m = sum_of(to, &WS::fast_misses) - sum_of(from, &WS::fast_misses);
    return frac(h, h + m);
  };
  res.add("fast_tier.hit_frac", hit_frac(sw.ws0, sw.ws1), "ratio");
  res.add("fast_tier.hit_frac_first_half", hit_frac(sw.ws0, sw.ws_mid), "ratio");
  res.add("fast_tier.hit_frac_second_half", hit_frac(sw.ws_mid, sw.ws1), "ratio");
  res.add("smux.decide_ns_per_pkt", decide, "ns");
  res.add("smux.flow_entries", static_cast<double>(flow_entries), "count");
  res.add("client.late_p99_us", quantile(c.late_us, 0.99), "us");
  res.add("client.rtt_p50_us", lowest_slice_quantile(c.rtt_us, 0.5, kRttSlices), "us");
  res.add("client.rtt_p90_us", lowest_slice_quantile(c.rtt_us, 0.9, kRttSlices), "us");
  res.add("client.rtt_p99_us", quantile(c.rtt_us, 0.99), "us");
  res.add("client.rtt_p999_us", quantile(c.rtt_us, 0.999), "us");
  res.add("client.rtt_samples", static_cast<double>(c.rtt_us.size()), "count");
  const double stage_ns = send + recv + parse + encap + hash + lookup + decide;
  res.add("closure_ratio", stage_ns / (sut_cpu_us_per_pkt * 1e3), "ratio");
  const double untraced_p50 = lowest_slice_quantile(sw.client_untraced.rtt_us, 0.5, kRttSlices);
  res.add("trace.rtt_p50_overhead",
          lowest_slice_quantile(c.rtt_us, 0.5, kRttSlices) / untraced_p50 - 1.0, "ratio");
  const auto client_us = [](const ClientResult& r) {
    return r.thread_cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, r.sent));
  };
  res.add("trace.client_cpu_overhead", client_us(c) / client_us(sw.client_untraced) - 1.0,
          "ratio");
  res.add("trace.spans", static_cast<double>(tracer.size()), "count");
  res.add("ctl.op_p50_ms", lowest_slice_quantile(sw.ops.ack_ms, 0.5, kOpSlices), "ms");
  res.add("ctl.ping_us", ping_us, "us");
  res.add("persist.append_us", append_us, "us");
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    res.add(std::string("controller.apply_us.") + op_name(static_cast<OpKind>(k)), apply_us[k],
            "us");
  }
  res.add("mux.update_lag_ms", lag_ms, "ms");
  const PlanPass& reopened = passes.back();
  const bool replan_restart = reopened.restart_s >= 0;
  res.add("persist.restart_s", restart_s.empty() ? 0.0 : *std::min_element(restart_s.begin(), restart_s.end()), "s");
  res.add("persist.recover_ms", replan_restart ? reopened.recover_ms : median(recover_ms), "ms");
  res.add("persist.replayed_ops",
          static_cast<double>(replan_restart ? reopened.replayed : replayed), "count");
  res.add("plan.epoch_cpu_s", median(epoch_cpu_s), "s");
  res.add("plan.epoch_wall_s", median(epoch_wall_s), "s");
  res.add("persist.snapshot_ms", snapshot_ms, "ms");
  res.add("persist.epoch_op_bytes", static_cast<double>(pp.epoch_op_bytes), "bytes");
  res.add("assign.scratch_s", pp.scratch_s, "s");
  res.add("assign.sticky_s", pp.sticky_s, "s");
  res.add("controller.run_epoch_s", pp.run_epoch_s, "s");
  res.add("audit.ms", pp.audit_ms, "ms");
  res.print();
  return res.problems.empty() ? 0 : 1;
}

// ---- oracle self-check ----------------------------------------------------------

// Feeds the client's echo check a test double of the serving path: intact
// echoes, an echo with one corrupted byte, and a flow answered by a second
// DIP before and after a DIP removal.
int check_oracle() {
  auto sock = UdpSocket::bind(Endpoint{Ipv4Address{127, 0, 0, 1}, 0});
  if (!sock) cannot_run("cannot bind a loopback UDP socket");
  TrafficSpec spec{{Ipv4Address{100, 1, 0, 1}, Ipv4Address{100, 1, 0, 2}}, 1e3, 128, 0, 4, 7};
  std::vector<UdpSocket> one;
  one.push_back(std::move(*sock));
  OpenLoopClient client(spec, std::move(one), Endpoint{});
  client.prepare(1'000'000, 0, 100);
  const Endpoint dip_a{Ipv4Address{127, 0, 0, 1}, 40001};
  const Endpoint dip_b{Ipv4Address{127, 0, 0, 1}, 40002};
  std::vector<std::uint8_t> bytes;
  std::uint64_t seq = 0;
  int bad = 0;
  const auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "duetbench: oracle check failed: %s\n", what);
      ++bad;
    }
  };
  using V = OpenLoopClient::Verdict;
  client.build(0, client.sched_ns(0), bytes);
  expect(client.verify(bytes, dip_a, &seq) == V::kOk && seq == 0, "an intact echo passes");
  client.build(4, client.sched_ns(4), bytes);  // same flow as seq 0
  expect(client.verify(bytes, dip_a, &seq) == V::kOk, "the same flow on the same DIP passes");
  client.build(8, client.sched_ns(8), bytes);
  bytes[bytes.size() - 1] ^= 0x40;
  expect(client.verify(bytes, dip_a, &seq) == V::kCorrupt, "a corrupted payload byte is caught");
  client.build(8, client.sched_ns(8), bytes);
  bytes[duet::kIpv4HeaderBytes - 5] ^= 0x01;
  expect(client.verify(bytes, dip_a, &seq) == V::kCorrupt, "a corrupted header byte is caught");
  client.build(12, client.sched_ns(12), bytes);
  expect(client.verify(bytes, dip_b, &seq) == V::kRemap, "a move without a removal is caught");
  client.note_dip_removed(client.vip_index_of(client.flow_of(12)));
  client.build(16, client.sched_ns(16), bytes);
  expect(client.verify(bytes, dip_b, &seq) == V::kOk, "a move after a DIP removal is allowed");
  std::printf("{\"oracle_checks_failed\": %d}\n", bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace duetbench

int main(int argc, char** argv) {
  const auto args = duetbench::parse_args(argc, argv);
  duet::set_log_level(duet::LogLevel::kWarn);
  // Planning runs on a one-thread exec pool. On a VM whose vCPUs are shared
  // with other tenants, the parallel candidate scoring's per-call barrier
  // waits for the most-stolen vCPU: a sticky epoch at width 4 took 0.09 s
  // on a quiet host and 0.74 s under steal, against 0.11 s at width 1.
  duet::exec::set_default_width(1);
  if (args.check_oracle) return duetbench::check_oracle();
  return duetbench::run(args);
}
