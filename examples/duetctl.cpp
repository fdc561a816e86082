// duetctl — command-line front end for capacity planning with the library.
//
//   duetctl plan     [options]   run the assignment on a trace, print the plan
//   duetctl gen      [options]   generate a synthetic trace file
//   duetctl replay   [options]   replay a multi-epoch trace with Sticky
//   duetctl stats    [options]   replay through the live controller (with a
//                                failure injected mid-run) and dump telemetry
//   duetctl audit    [options]   replay the same incident-laden run through
//                                the live controller, auditing every named
//                                design invariant (audit/invariants.h) at each
//                                stage; prints the per-invariant report and
//                                exits 1 on any violation
//   duetctl serve    [options]   run duetd: a live SMux worker pool on a real
//                                UDP socket, with in-process echo DIPs, until
//                                SIGTERM/SIGINT (or --duration); drains, dumps
//                                telemetry, audits the final state
//   duetctl load     [options]   run duetload against a duetd started with the
//                                same --vips/--dips/--seed; closed loop by
//                                default, open loop when --pps is given
//
// Ops-socket client (requires --socket PATH; talks to a running durable
// duetd, examples/duetd.cpp):
//   duetctl ping        --socket S             liveness check
//   duetctl add-vip     --socket S VIP DIP...  journal + serve a new VIP
//   duetctl add-dip     --socket S VIP DIP     grow a pool (smux bounce)
//   duetctl remove-dip  --socket S VIP DIP     shrink a pool (resilient hash)
//   duetctl remove-vip  --socket S VIP
//   duetctl set-engine  --socket S VIP stateful|stateless|clear
//   duetctl migrate     --socket S VIP SWITCH|smux   §4.2 two-phase move
//   duetctl stats       --socket S             seq/recovery/serving counters
//                                              (incl. fast-tier hits/misses/
//                                              rebuilds)
//   duetctl audit       --socket S             run all invariants now
//   duetctl snapshot    --socket S             compact: snapshot + restart log
//   duetctl drain       --socket S             graceful shutdown request
// Client options: --timeout-ms T (connect+request, default 5000),
// --retries N (pre-delivery transport retries, default 3), --backoff-ms B
// (default 100, doubles per retry). Only connect/send failures are retried;
// once a request was fully delivered it is never re-sent (at-most-once: the
// daemon may have applied it even if the reply was lost), and responses with
// nonzero status are never retried either.
// Exit codes (client commands): 0 = ok; 1 = duetd reported failure (bad
// VIP, rejected migration, failed audit); 2 = usage error (local or
// server-side parse); 3 = could not reach duetd (refused/timeout after all
// retries), or a delivered request whose reply was lost — the mutation may
// or may not have applied; check with `duetctl stats`.
//
// Options:
//   --containers N --tors N --cores N     fabric shape (default 6 8 6)
//   --vips N --gbps G --epochs E          workload (default 600, 600, 3)
//   --replicas R                          use §9 anycast replication
//   --trace FILE                          load/store the trace file
//   --json FILE                           (stats/serve/load) also write JSON
//   --threads N                           worker width for parallel phases
//                                         (default: DUET_THREADS env, else all cores)
//   --seed S
// Live options (serve/load):
//   --port P                              serve: listen port (0 = kernel picks)
//                                         load: the duetd port (required)
//   --workers N --dips N                  serve shape (default 2 workers,
//                                         4 DIPs per VIP; --vips defaults to 4)
//   --duration S                          serve: exit after S seconds (0 = until
//                                         signal); load: open-loop run length
//   --stats-interval S                    serve: live counter print period
//   --engine stateful|stateless           serve: SMux decision engine (default
//                                         stateful flow-table pins; stateless =
//                                         versioned map, no per-flow state)
//   --pin-cpus                            serve: pin worker i to CPU (i mod
//                                         online CPUs); DUET_CPU_PIN overrides
//   --pps R --flows N --sockets N         load shape (pps 0 = closed loop)
//   --packets N --bytes B                 load: closed-loop count, datagram size
//
// Examples:
//   build/examples/duetctl gen --trace /tmp/t.trace --vips 1000 --gbps 800
//   build/examples/duetctl plan --trace /tmp/t.trace
//   build/examples/duetctl replay --vips 800 --epochs 6
//   build/examples/duetctl stats --vips 400 --epochs 4 --json /tmp/stats.json
//   build/examples/duetctl serve --port 9004 --workers 4 &
//   build/examples/duetctl load --port 9004 --packets 20000
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "audit/invariants.h"
#include "audit/snapshot.h"
#include "persist/ctl_protocol.h"
#include "duet/assignment.h"
#include "duet/config.h"
#include "duet/controller.h"
#include "duet/migration.h"
#include "duet/replication.h"
#include "exec/thread_pool.h"
#include "runtime/fake_dip.h"
#include "runtime/load_gen.h"
#include "runtime/mux_server.h"
#include "telemetry/export.h"
#include "topo/fattree.h"
#include "util/logging.h"
#include "util/table.h"
#include "workload/demand.h"
#include "workload/trace_io.h"
#include "workload/tracegen.h"

using namespace duet;

namespace {

struct Args {
  std::string command;
  std::size_t containers = 6, tors = 8, cores = 6;
  std::size_t vips = 600, epochs = 3, replicas = 1;
  bool vips_explicit = false;  // serve/load default to 4 VIPs unless --vips given
  double gbps = 600.0;
  std::string trace_file;
  std::string json_file;
  std::uint64_t seed = 1;

  // Live runtime (serve/load).
  std::uint16_t port = 0;
  std::size_t workers = 2, dips_per_vip = 4;
  std::size_t flows = 64, sockets = 2, packets = 10000, bytes = 128;
  double duration_s = 0.0, stats_interval_s = 5.0, pps = 0.0;
  SmuxEngine engine = SmuxEngine::kStateful;
  bool pin_cpus = false;   // serve: pin worker i to CPU (i mod online)
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.command = argv[1];
  static constexpr const char* kLocalCommands[] = {"plan",  "gen",   "replay", "stats",
                                                   "audit", "serve", "load"};
  if (std::find(std::begin(kLocalCommands), std::end(kLocalCommands), a.command) ==
      std::end(kLocalCommands)) {
    std::fprintf(stderr, "duetctl: unknown command: %s\n", a.command.c_str());
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    // Valueless flags first; everything else is a key/value pair.
    if (key == "--pin-cpus") {
      a.pin_cpus = true;
      continue;
    }
    if (i + 1 >= argc) break;  // trailing key without a value: ignore
    const char* value = argv[++i];
    if (key == "--containers") {
      a.containers = std::strtoul(value, nullptr, 10);
    } else if (key == "--tors") {
      a.tors = std::strtoul(value, nullptr, 10);
    } else if (key == "--cores") {
      a.cores = std::strtoul(value, nullptr, 10);
    } else if (key == "--vips") {
      a.vips = std::strtoul(value, nullptr, 10);
      a.vips_explicit = true;
    } else if (key == "--epochs") {
      a.epochs = std::strtoul(value, nullptr, 10);
    } else if (key == "--replicas") {
      a.replicas = std::strtoul(value, nullptr, 10);
    } else if (key == "--gbps") {
      a.gbps = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      a.trace_file = value;
    } else if (key == "--json") {
      a.json_file = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--threads") {
      exec::set_default_width(std::strtoul(value, nullptr, 10));
    } else if (key == "--port") {
      a.port = static_cast<std::uint16_t>(std::strtoul(value, nullptr, 10));
    } else if (key == "--workers") {
      a.workers = std::strtoul(value, nullptr, 10);
    } else if (key == "--dips") {
      a.dips_per_vip = std::strtoul(value, nullptr, 10);
    } else if (key == "--flows") {
      a.flows = std::strtoul(value, nullptr, 10);
    } else if (key == "--sockets") {
      a.sockets = std::strtoul(value, nullptr, 10);
    } else if (key == "--packets") {
      a.packets = std::strtoul(value, nullptr, 10);
    } else if (key == "--bytes") {
      a.bytes = std::strtoul(value, nullptr, 10);
    } else if (key == "--duration") {
      a.duration_s = std::strtod(value, nullptr);
    } else if (key == "--stats-interval") {
      a.stats_interval_s = std::strtod(value, nullptr);
    } else if (key == "--pps") {
      a.pps = std::strtod(value, nullptr);
    } else if (key == "--engine") {
      if (!parse_smux_engine(value, &a.engine)) {
        std::fprintf(stderr, "--engine must be stateful or stateless, got %s\n", value);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return false;
    }
  }
  return a.command == "plan" || a.command == "gen" || a.command == "replay" ||
         a.command == "stats" || a.command == "audit" || a.command == "serve" ||
         a.command == "load";
}

Trace obtain_trace(const Args& a, const FatTree& fabric) {
  if (!a.trace_file.empty() && a.command != "gen") {
    if (auto t = load_trace(a.trace_file, fabric)) {
      std::printf("loaded %zu VIPs x %zu epochs from %s\n", t->vips.size(), t->epochs,
                  a.trace_file.c_str());
      return *std::move(t);
    }
    std::fprintf(stderr, "failed to load %s; generating instead\n", a.trace_file.c_str());
  }
  TraceParams p;
  p.vip_count = a.vips;
  p.total_gbps = a.gbps;
  p.epochs = a.epochs;
  p.seed = a.seed;
  return generate_trace(fabric, p);
}

void print_plan(const FatTree& fabric, const Assignment& a,
                const std::vector<VipDemand>& demands) {
  const auto failover = analyze_failover(fabric, demands, a);
  const DuetConfig cfg;
  std::printf("\nplacement: %zu VIPs on HMuxes (%.1f%% of %.0f Gbps), %zu on SMuxes\n",
              a.placement.size(), 100 * a.hmux_fraction(), total_demand_gbps(demands),
              a.on_smux.size());
  std::printf("max resource utilization (MRU): %.2f\n", a.mru);
  std::printf("failover exposure: container %.1f Gbps | 3-switch %.1f Gbps\n",
              failover.worst_container_gbps, failover.worst_three_switch_gbps);
  std::printf("backstop SMuxes to provision (3.6G each): %zu\n",
              smuxes_needed(a.smux_gbps, failover.worst_gbps(), 0.0, cfg.smux_capacity_gbps()));

  // Busiest switches.
  std::vector<std::pair<double, SwitchId>> busy;
  std::vector<double> per_switch(fabric.topo.switch_count(), 0.0);
  for (const auto& d : demands) {
    if (const auto sw = a.switch_of(d.id)) per_switch[*sw] += d.total_gbps;
  }
  for (SwitchId s = 0; s < fabric.topo.switch_count(); ++s) {
    if (per_switch[s] > 0) busy.push_back({per_switch[s], s});
  }
  std::sort(busy.rbegin(), busy.rend());
  TablePrinter t{{"switch", "role", "Gbps", "DIP slots"}};
  for (std::size_t i = 0; i < std::min<std::size_t>(8, busy.size()); ++i) {
    const auto [gbps, s] = busy[i];
    t.add_row({fabric.topo.switch_info(s).name, to_string(fabric.topo.switch_info(s).role),
               TablePrinter::fmt(gbps, "%.1f"),
               TablePrinter::fmt_int(static_cast<long long>(a.switch_dips_used[s]))});
  }
  std::printf("\nbusiest HMuxes:\n");
  t.print();
}

// --- live runtime (serve / load) ---------------------------------------------------

// Drain flag flipped by SIGTERM/SIGINT; the handler does nothing else —
// MuxServer::shutdown is not async-signal-safe and runs in the main loop.
volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

// serve and load must agree on the VIP set (load builds flow tuples against
// the VIPs serve installed), so both derive it from the same scheme:
// VIP v = 100.0.v.1, its DIPs 10.v.0.(d+1).
std::vector<Ipv4Address> live_vip_set(const Args& a) {
  const std::size_t nv = a.vips_explicit ? a.vips : 4;
  std::vector<Ipv4Address> vips;
  for (std::size_t v = 0; v < nv; ++v) {
    vips.push_back(Ipv4Address{static_cast<std::uint32_t>((100u << 24) + 256 * v + 1)});
  }
  return vips;
}

int cmd_serve(const Args& a) {
  runtime::MuxServerOptions mo;
  mo.listen.port = a.port;
  mo.workers = a.workers == 0 ? 1 : a.workers;
  mo.stats_interval_s = a.stats_interval_s;
  mo.print_stats = a.stats_interval_s > 0;
  // The interval counters log at info; the library default is warn.
  if (mo.print_stats) set_log_level(LogLevel::kInfo);
  mo.stats_json_path = a.json_file;
  mo.hasher = FlowHasher{a.seed};
  mo.pin_cpus = a.pin_cpus;
  DuetConfig cfg;
  cfg.smux_engine = a.engine;  // every worker's Smux decides with this engine
  runtime::MuxServer mux{mo, cfg};

  // In-process echo DIPs stand in for the real backends (fake_dip.h): one
  // loopback socket per DIP, replying straight to the client — DSR.
  runtime::FakeDipPool dips;
  const auto vips = live_vip_set(a);
  const std::size_t nd = a.dips_per_vip == 0 ? 1 : a.dips_per_vip;
  for (std::size_t v = 0; v < vips.size(); ++v) {
    std::vector<Ipv4Address> pool;
    for (std::size_t d = 0; d < nd; ++d) {
      const Ipv4Address dip{static_cast<std::uint32_t>((10u << 24) + (v << 16) + d + 1)};
      const auto at = dips.add_dip(dip);
      if (!at.has_value()) {
        std::fprintf(stderr, "serve: failed to bind an echo socket for a DIP\n");
        return 1;
      }
      mux.map_dip(dip, *at);
      pool.push_back(dip);
    }
    mux.set_vip(vips[v], std::move(pool));
  }
  if (!dips.start()) {
    std::fprintf(stderr, "serve: failed to start the echo DIP pool\n");
    return 1;
  }
  if (!mux.start()) {
    std::fprintf(stderr, "serve: failed to bind 127.0.0.1:%u\n", unsigned{a.port});
    dips.shutdown();
    dips.join();
    return 1;
  }
  std::printf("duetd: %zu workers on 127.0.0.1:%u | %zu VIPs x %zu DIPs | seed %llu\n",
              mo.workers, unsigned{mux.listen_endpoint().port}, vips.size(), nd,
              static_cast<unsigned long long>(a.seed));
  std::printf("duetd: serving%s; SIGTERM/SIGINT drains\n",
              a.duration_s > 0 ? " (timed run)" : "");

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const auto t0 = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    if (a.duration_s > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() >=
            a.duration_s) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("duetd: draining\n");
  mux.shutdown();
  mux.join();
  dips.shutdown();
  dips.join();

  std::printf("\n");
  telemetry::TextExporter::print(mux.metrics());
  if (!a.json_file.empty()) {
    if (telemetry::JsonExporter::write_file(a.json_file, "duetd", &mux.metrics(), nullptr)) {
      std::printf("\nwrote %s\n", a.json_file.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", a.json_file.c_str());
      return 1;
    }
  }

  // The drained deployment must pass the same invariant auditor the
  // simulations run under; a violation fails the command.
  const auto report = audit::InvariantAuditor{}.audit(mux.audit_snapshot());
  std::printf("\nfinal audit: %s\n", report.clean() ? "clean" : report.summary().c_str());
  for (const auto& v : report.violations) {
    std::printf("VIOLATION [%s] %s\n", v.invariant.c_str(), v.message.c_str());
  }
  return report.clean() ? 0 : 1;
}

int cmd_load(const Args& a) {
  if (a.port == 0) {
    std::fprintf(stderr, "load requires --port (the duetd listen port)\n");
    return 2;
  }
  runtime::LoadGenOptions lo;
  lo.target = runtime::Endpoint{Ipv4Address{127, 0, 0, 1}, a.port};
  lo.sockets = a.sockets == 0 ? 1 : a.sockets;
  lo.packet_bytes = a.bytes;
  lo.window = std::max<std::size_t>(a.flows, 64);
  lo.pps = a.pps;
  lo.duration_s = a.duration_s > 0 ? a.duration_s : 1.0;
  runtime::LoadGenerator gen{lo};
  if (!gen.init()) {
    std::fprintf(stderr, "load: failed to bind source sockets\n");
    return 1;
  }
  const auto vips = live_vip_set(a);
  const auto flows = gen.make_flows(vips, a.flows == 0 ? 1 : a.flows);

  const bool open_loop = a.pps > 0;
  std::printf("duetload: %zu flows over %zu VIPs -> 127.0.0.1:%u (%s)\n", flows.size(),
              vips.size(), unsigned{a.port},
              open_loop ? "open loop" : "closed loop");
  const auto report =
      open_loop ? gen.run_open(flows) : gen.run_closed(flows, a.packets);

  std::printf("\nsent %llu | received %llu | retries %llu | timeouts %llu | drops %llu\n",
              static_cast<unsigned long long>(report.sent),
              static_cast<unsigned long long>(report.received),
              static_cast<unsigned long long>(report.retries),
              static_cast<unsigned long long>(report.timeouts),
              static_cast<unsigned long long>(report.send_drops));
  std::printf("elapsed %.3f s | %.0f pps offered\n", report.elapsed_s, report.send_pps);
  if (const auto* rtt = gen.metrics().find_histogram("duet.loadgen.rtt_us");
      rtt != nullptr && !rtt->empty()) {
    std::printf("rtt us: p50 %.0f | p90 %.0f | p99 %.0f | max %.0f\n", rtt->percentile(50),
                rtt->percentile(90), rtt->percentile(99), rtt->max());
  }
  std::size_t answered = 0;
  for (const auto& e : report.dip_by_flow) answered += e.port != 0 ? 1 : 0;
  std::printf("flows answered: %zu/%zu | integrity failures %llu | remap violations %llu\n",
              answered, flows.size(),
              static_cast<unsigned long long>(report.integrity_failures),
              static_cast<unsigned long long>(report.remap_violations));
  if (!a.json_file.empty()) {
    if (telemetry::JsonExporter::write_file(a.json_file, "duetload", &gen.metrics(), nullptr)) {
      std::printf("wrote %s\n", a.json_file.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", a.json_file.c_str());
      return 1;
    }
  }
  return report.integrity_failures == 0 && report.remap_violations == 0 ? 0 : 1;
}

// --- ops-socket client ---------------------------------------------------------

bool is_client_command(const std::string& cmd) {
  return cmd == "ping" || cmd == "add-vip" || cmd == "add-dip" || cmd == "remove-dip" ||
         cmd == "remove-vip" || cmd == "set-engine" || cmd == "migrate" || cmd == "stats" ||
         cmd == "audit" || cmd == "snapshot" || cmd == "drain";
}

// Exit contract (documented in the header comment / usage): 0 ok, 1 duetd
// reported failure, 2 usage error, 3 transport failure after all retries.
int cmd_client(int argc, char** argv) {
  std::string socket_path;
  persist::CtlClientOptions copts;
  std::vector<std::string> request{argv[1]};
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    const bool has_value = i + 1 < argc;
    if (key == "--socket" && has_value) {
      socket_path = argv[++i];
    } else if (key == "--timeout-ms" && has_value) {
      copts.connect_timeout_ms = copts.request_timeout_ms =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (key == "--retries" && has_value) {
      copts.retries = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (key == "--backoff-ms" && has_value) {
      copts.backoff_ms = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (key.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown client option %s\n", key.c_str());
      return 2;
    } else {
      request.push_back(key);  // positional: VIP / DIP / target
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "duetctl %s requires --socket PATH (the duetd ops socket)\n", argv[1]);
    return 2;
  }
  persist::CtlClient client{socket_path, copts};
  const auto response = client.request(request);
  if (!response.has_value()) {
    std::fprintf(stderr,
                 "duetctl: no response from duetd at %s (connect/send retried %d times; "
                 "a delivered request is never re-sent)\n",
                 socket_path.c_str(), copts.retries);
    return 3;
  }
  if (!response->text.empty()) {
    std::fprintf(response->ok() ? stdout : stderr, "%s\n", response->text.c_str());
  }
  return response->status;
}

}  // namespace

int main(int argc, char** argv) {
  // Client commands go straight to a running duetd's ops socket. `stats` and
  // `audit` double as local simulation commands — --socket selects the
  // client path.
  if (argc >= 2 && is_client_command(argv[1])) {
    bool has_socket = false;
    for (int i = 2; i < argc; ++i) has_socket |= std::strcmp(argv[i], "--socket") == 0;
    const bool client_only = is_client_command(argv[1]) && std::strcmp(argv[1], "stats") != 0 &&
                             std::strcmp(argv[1], "audit") != 0;
    if (has_socket || client_only) return cmd_client(argc, argv);
  }

  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: duetctl plan|gen|replay|stats|audit|serve|load\n"
                 "       [--containers N] [--tors N] [--cores N]\n"
                 "       [--vips N] [--gbps G] [--epochs E] [--replicas R] [--trace FILE]\n"
                 "       [--seed S] [--json FILE] [--threads N]\n"
                 "  serve: [--port P] [--workers N] [--vips N] [--dips N] [--duration S]\n"
                 "         [--stats-interval S] [--json FILE] [--pin-cpus]\n"
                 "  load:  --port P [--pps R] [--duration S] [--packets N] [--flows N]\n"
                 "         [--sockets N] [--bytes B] [--json FILE]\n"
                 "ops-socket client (against a running duetd):\n"
                 "  duetctl ping|stats|audit|snapshot|drain --socket PATH\n"
                 "  duetctl add-vip VIP DIP... | add-dip VIP DIP | remove-dip VIP DIP |\n"
                 "          remove-vip VIP | set-engine VIP stateful|stateless|clear |\n"
                 "          migrate VIP SWITCH|smux   (all with --socket PATH)\n"
                 "  client options: [--timeout-ms T] [--retries N] [--backoff-ms B]\n"
                 "                  (retries cover connect/send only; a delivered\n"
                 "                  request is never re-sent — at-most-once)\n"
                 "  client exit codes: 0 ok | 1 duetd-reported failure | 2 usage |\n"
                 "                     3 no response from duetd (mutation fate unknown\n"
                 "                     if the request was delivered; check stats)\n");
    return 2;
  }

  // The live commands run on real sockets, not the modelled fabric.
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "load") return cmd_load(args);

  const auto fabric = build_fattree(FatTreeParams::scaled(args.containers, args.tors, args.cores));
  std::printf("fabric: %zu containers x %zu ToRs, %zu cores (%zu switches, %zu servers)\n",
              args.containers, args.tors, args.cores, fabric.topo.switch_count(),
              fabric.servers.size());

  if (args.command == "gen") {
    if (args.trace_file.empty()) {
      std::fprintf(stderr, "gen requires --trace FILE\n");
      return 2;
    }
    TraceParams p;
    p.vip_count = args.vips;
    p.total_gbps = args.gbps;
    p.epochs = args.epochs;
    p.seed = args.seed;
    const auto trace = generate_trace(fabric, p);
    if (!save_trace(args.trace_file, trace)) return 1;
    std::printf("wrote %zu VIPs x %zu epochs to %s\n", trace.vips.size(), trace.epochs,
                args.trace_file.c_str());
    return 0;
  }

  const auto trace = obtain_trace(args, fabric);
  const auto demands = build_demands(fabric, trace, 0);
  AssignmentOptions opts;
  opts.seed = args.seed;

  if (args.command == "audit") {
    // Same incident-laden replay as `stats` — epochs, a DIP health flap, an
    // HMux death, an SMux death — but after every control-plane step the
    // invariant auditor walks the whole system and the journal. A clean run
    // proves the controller preserved every audited design rule through the
    // failures; any violation names the broken rule and fails the command.
    DuetController ctl{fabric, DuetConfig{}, FlowHasher{args.seed}, args.seed};
    ctl.deploy_smuxes({fabric.tors[0], fabric.tors[fabric.tors.size() / 2],
                       fabric.tors[fabric.tors.size() - 1]},
                      Ipv4Prefix{Ipv4Address{100, 0, 0, 0}, 8});
    for (const auto& v : trace.vips) ctl.add_vip(v.vip, v.dips);

    const audit::InvariantAuditor auditor;
    audit::AuditReport combined;
    std::size_t stages = 0;
    auto stage_audit = [&](const std::string& stage) {
      auto report = auditor.audit(audit::SystemSnapshot::capture(ctl));
      report.merge(auditor.audit_journal(ctl.journal()));
      std::printf("  %-28s %s\n", stage.c_str(), report.clean() ? "ok" : report.summary().c_str());
      combined.merge(std::move(report));
      ++stages;
    };

    std::printf("\nauditing %zu invariants per stage:\n",
                audit::InvariantAuditor::invariants().size());
    stage_audit("deploy");
    constexpr double kEpochUs = 10e6;
    for (std::size_t e = 0; e < trace.epochs; ++e) {
      ctl.set_clock_us(static_cast<double>(e) * kEpochUs);
      ctl.run_epoch(build_demands(fabric, trace, e));
      stage_audit("epoch " + std::to_string(e));
      if (e == trace.epochs / 2) {
        const auto& v0 = trace.vips.front();
        ctl.set_clock_us(static_cast<double>(e) * kEpochUs + 1e6);
        ctl.report_dip_health(v0.vip, v0.dips.front(), false);
        ctl.set_clock_us(static_cast<double>(e) * kEpochUs + 2e6);
        ctl.report_dip_health(v0.vip, v0.dips.front(), true);
        stage_audit("dip health flap");
        for (const auto& v : trace.vips) {
          if (const auto home = ctl.hmux_home(v.vip)) {
            ctl.set_clock_us(static_cast<double>(e) * kEpochUs + 3e6);
            ctl.handle_switch_failure(*home);
            break;
          }
        }
        stage_audit("hmux failure");
        ctl.set_clock_us(static_cast<double>(e) * kEpochUs + 4e6);
        ctl.handle_smux_failure(0);
        stage_audit("smux failure");
      }
    }

    std::printf("\nper-invariant results over %zu stages:\n", stages);
    TablePrinter t{{"invariant", "paper", "violations"}};
    for (const auto& info : audit::InvariantAuditor::invariants()) {
      t.add_row({info.name, info.paper_ref,
                 TablePrinter::fmt_int(static_cast<long long>(combined.count(info.name)))});
    }
    t.print();
    for (const auto& v : combined.violations) {
      std::printf("VIOLATION [%s] %s\n", v.invariant.c_str(), v.message.c_str());
    }
    std::printf("%s\n", combined.clean() ? "audit clean" : "AUDIT FAILED");
    return combined.clean() ? 0 : 1;
  }

  if (args.command == "stats") {
    // Drive the live controller through the trace — epochs, a DIP health
    // flap, a switch failure mid-run — then dump the telemetry it gathered.
    DuetController ctl{fabric, DuetConfig{}, FlowHasher{args.seed}, args.seed};
    ctl.deploy_smuxes({fabric.tors[0], fabric.tors[fabric.tors.size() / 2],
                       fabric.tors[fabric.tors.size() - 1]},
                      Ipv4Prefix{Ipv4Address{100, 0, 0, 0}, 8});
    for (const auto& v : trace.vips) ctl.add_vip(v.vip, v.dips);

    constexpr double kEpochUs = 10e6;  // 10 s epochs on the journal clock
    for (std::size_t e = 0; e < trace.epochs; ++e) {
      ctl.set_clock_us(static_cast<double>(e) * kEpochUs);
      ctl.run_epoch(build_demands(fabric, trace, e));
      if (e == trace.epochs / 2) {
        // Mid-run incident: a DIP health flap plus the death of some VIP's
        // HMux, so the journal shows the §5.1 sequences.
        const auto& v0 = trace.vips.front();
        ctl.set_clock_us(static_cast<double>(e) * kEpochUs + 1e6);
        ctl.report_dip_health(v0.vip, v0.dips.front(), false);
        ctl.set_clock_us(static_cast<double>(e) * kEpochUs + 2e6);
        ctl.report_dip_health(v0.vip, v0.dips.front(), true);
        for (const auto& v : trace.vips) {
          if (const auto home = ctl.hmux_home(v.vip)) {
            ctl.set_clock_us(static_cast<double>(e) * kEpochUs + 3e6);
            ctl.handle_switch_failure(*home);
            break;
          }
        }
      }
    }
    ctl.set_clock_us(static_cast<double>(trace.epochs) * kEpochUs);
    ctl.snapshot_table_occupancy();

    std::printf("\n");
    telemetry::TextExporter::print(ctl.metrics());
    std::printf("\nlast control-plane events:\n");
    telemetry::TextExporter::print(ctl.journal(), stdout, 30);
    if (!args.json_file.empty()) {
      if (telemetry::JsonExporter::write_file(args.json_file, "duetctl-stats", &ctl.metrics(),
                                              &ctl.journal())) {
        std::printf("\nwrote %s\n", args.json_file.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", args.json_file.c_str());
        return 1;
      }
    }
    return 0;
  }

  if (args.command == "plan") {
    if (args.replicas > 1) {
      ReplicationOptions ro;
      ro.replicas = args.replicas;
      const auto a = ReplicatedAssigner{fabric, opts, ro}.assign(demands);
      const auto f = analyze_failover_replicated(fabric, demands, a);
      std::printf("\nreplicated placement (R=%zu): %zu VIPs on HMuxes (%.1f%%)\n",
                  args.replicas, a.placement.size(), 100 * a.hmux_fraction());
      std::printf("failover exposure: container %.1f Gbps | 3-switch %.1f Gbps\n",
                  f.worst_container_gbps, f.worst_three_switch_gbps);
    } else {
      print_plan(fabric, VipAssigner{fabric, opts}.assign(demands), demands);
    }
    return 0;
  }

  // replay: Sticky over all epochs.
  const VipAssigner assigner{fabric, opts};
  auto current = assigner.assign(demands);
  std::printf("\nepoch 0: %.1f%% on HMux\n", 100 * current.hmux_fraction());
  for (std::size_t e = 1; e < trace.epochs; ++e) {
    const auto d = build_demands(fabric, trace, e);
    auto next = assigner.assign_sticky(d, current);
    const auto plan = plan_migration(current, next, d);
    std::printf("epoch %zu: %.1f%% on HMux | %zu moves | %.2f%% traffic shuffled\n", e,
                100 * next.hmux_fraction(), plan.move_count(), 100 * plan.shuffled_fraction());
    current = std::move(next);
  }
  return 0;
}
