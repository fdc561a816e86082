#include "persist/daemon.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "audit/invariants.h"
#include "audit/snapshot.h"
#include "net/hash.h"
#include "util/logging.h"

namespace duet::persist {

namespace {

// Matches the audit backstop and duetctl's live VIP scheme: every servable
// VIP lives in 100.0.0.0/8.
const Ipv4Prefix kVipAggregate{Ipv4Address{100, 0, 0, 0}, 8};

constexpr int kRequestTimeoutMs = 5000;
// The ops loop re-checks its stop flag this often; stop() wakes it at once.
constexpr int kOpsTickMs = 1000;

std::optional<std::uint32_t> parse_u32(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const unsigned long v = std::strtoul(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v > 0xfffffffful) return std::nullopt;
  return static_cast<std::uint32_t>(v);
}

CtlResponse usage(std::string text) { return CtlResponse{2, std::move(text)}; }
CtlResponse fail(std::string text) { return CtlResponse{1, std::move(text)}; }
CtlResponse ok(std::string text) { return CtlResponse{0, std::move(text)}; }

}  // namespace

Duetd::Duetd(DuetdOptions options) : opts_(std::move(options)) {}

Duetd::~Duetd() { stop(false); }

bool Duetd::start(std::string* error) {
  auto set_error = [error](std::string text) {
    if (error != nullptr) *error = std::move(text);
    return false;
  };
  socket_path_ = opts_.socket_path.empty() ? opts_.data_dir + "/duetd.sock" : opts_.socket_path;
  fabric_.emplace(build_fattree(FatTreeParams::scaled(opts_.containers, opts_.tors, opts_.cores)));

  DuetConfig cfg;
  cfg.smux_engine = opts_.engine;
  StoreOptions so;
  so.dir = opts_.data_dir;
  so.fsync = opts_.fsync;
  so.snapshot_every_ops = opts_.snapshot_every_ops;
  std::string open_error;
  store_ = PersistentController::open(*fabric_, cfg, FlowHasher{opts_.seed}, opts_.seed, so,
                                      &open_error);
  if (store_ == nullptr) return set_error("store: " + open_error);

  if (!store_->recovery().recovered) {
    // Fresh data dir: the SMux-pool deployment is itself op #1, so recovery
    // always re-drives it and never boots a controller with no backstop.
    Op deploy;
    deploy.kind = OpKind::kDeploySmuxes;
    deploy.aggregate = kVipAggregate;
    const auto& tors = fabric_->tors;
    for (const SwitchId t : {tors.front(), tors[tors.size() / 2], tors.back()}) {
      if (std::find(deploy.addrs.begin(), deploy.addrs.end(), t) == deploy.addrs.end()) {
        deploy.addrs.push_back(t);
      }
    }
    if (!store_->apply(std::move(deploy))) return set_error("failed to journal the deployment");
  }
  base_clock_us_ = store_->controller().clock_us();
  t0_ = std::chrono::steady_clock::now();

  runtime::MuxServerOptions mo;
  mo.listen.port = opts_.port;
  mo.workers = opts_.mux_workers == 0 ? 1 : opts_.mux_workers;
  mo.pin_cpus = opts_.pin_cpus;
  mo.hasher = FlowHasher{opts_.seed};
  mo.vip_aggregate = kVipAggregate;
  mux_ = std::make_unique<runtime::MuxServer>(mo, cfg);

  // Rebuild the serving path from the recovered controller: every VIP's pool
  // into the worker replicas, an echo endpoint per DIP.
  for (const Ipv4Address vip : store_->controller().vip_addresses()) push_vip(vip);

  if (!dips_.start()) return set_error("failed to start the echo DIP pool");
  if (!mux_->start()) {
    dips_.shutdown();
    dips_.join();
    return set_error("failed to bind the serving socket");
  }

  std::string listen_error = "cannot watch the listening socket";
  listen_fd_ = ctl_listen(socket_path_, &listen_error);
  if (listen_fd_ < 0 || !ops_loop_.add(listen_fd_, [this] { serve_one(); })) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    mux_->shutdown();
    mux_->join();
    dips_.shutdown();
    dips_.join();
    return set_error("ops socket: " + listen_error);
  }
  stop_accept_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] {
    runtime::name_this_thread("duet-ops");
    ops_loop_.run(stop_accept_, kOpsTickMs);
  });
  started_ = true;
  return true;
}

void Duetd::serve_one() {
  const int cfd = ::accept(listen_fd_, nullptr, nullptr);
  if (cfd < 0) return;
  if (auto frame = ctl_recv_frame(cfd, kRequestTimeoutMs); frame.has_value()) {
    CtlResponse response;
    if (auto argv = decode_request(*frame); argv.has_value()) {
      response = handle(*argv);
    } else {
      response = usage("malformed request frame");
    }
    ctl_send_frame(cfd, encode_response(response), kRequestTimeoutMs);
  }
  ::close(cfd);
}

double Duetd::next_t_us() {
  const auto elapsed = std::chrono::duration<double, std::micro>(
      std::chrono::steady_clock::now() - t0_);
  return base_clock_us_ + elapsed.count();
}

void Duetd::push_vip(Ipv4Address vip) {
  const auto dips = store_->controller().dips_of(vip);
  if (dips.empty()) {
    mux_->apply_vip_removal(vip);
    return;
  }
  // Give every DIP the serving path has not seen yet an echo identity in
  // one call (a table insert, no syscall), then hand the new endpoints to
  // the mux inside the VIP's own update (one wake-up per worker): the op
  // costs O(its DIPs), however many DIPs are already deployed.
  std::vector<Ipv4Address> fresh;
  for (const Ipv4Address dip : dips) {
    if (!dip_at_.contains(dip) && std::find(fresh.begin(), fresh.end(), dip) == fresh.end()) {
      fresh.push_back(dip);
    }
  }
  std::vector<runtime::MuxServer::DipEndpoint> new_endpoints;
  if (!fresh.empty()) {
    const auto bound = dips_.add_dips(fresh);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (!bound[i].has_value()) {
        DUET_LOG_WARN << "duetd: no echo endpoint for DIP " << fresh[i].to_string();
        continue;
      }
      dip_at_.emplace(fresh[i], *bound[i]);
      new_endpoints.push_back({fresh[i], *bound[i]});
    }
  }
  mux_->apply_vip_update(vip, dips, store_->controller().weights_of(vip),
                         std::move(new_endpoints));
}

CtlResponse Duetd::apply_checked(Op op, std::string ok_text) {
  op.t_us = next_t_us();
  if (!store_->apply(std::move(op))) {
    // WAL contract: the append failed, so the controller was NOT mutated.
    return fail("journal append failed; state unchanged");
  }
  return ok(std::move(ok_text));
}

CtlResponse Duetd::handle(const std::vector<std::string>& argv) {
  std::lock_guard<std::mutex> lock(op_mu_);
  if (argv.empty()) return usage("empty request");
  const std::string& cmd = argv[0];
  const auto& ctl = store_->controller();

  if (cmd == "ping") return ok("pong");

  if (cmd == "drain") {
    drain_.store(true, std::memory_order_release);
    return ok("draining");
  }

  if (cmd == "snapshot") {
    if (!store_->snapshot_now()) return fail("snapshot failed; previous snapshot+log remain valid");
    return ok("snapshot at seq " + std::to_string(store_->snapshot_seq()));
  }

  if (cmd == "stats") {
    const auto& rec = store_->recovery();
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "seq %llu | snapshot %llu | %llu ops since snapshot\n"
                  "vips %zu | smuxes %zu | serving 127.0.0.1:%u\n"
                  "recovered %s (snapshot seq %llu + %llu ops%s, %.2f ms)\n",
                  static_cast<unsigned long long>(store_->last_seq()),
                  static_cast<unsigned long long>(store_->snapshot_seq()),
                  static_cast<unsigned long long>(store_->ops_since_snapshot()), ctl.vip_count(),
                  ctl.smux_count(), unsigned{mux_->listen_endpoint().port},
                  rec.recovered ? "yes" : "no (fresh)",
                  static_cast<unsigned long long>(rec.snapshot_seq),
                  static_cast<unsigned long long>(rec.replayed),
                  rec.truncated_tail ? ", torn tail cut" : "", rec.recover_ms);
    std::string text{buf};
    const auto* rx = mux_->metrics().find_counter("duet.runtime.rx_packets");
    const auto* tx = mux_->metrics().find_counter("duet.runtime.tx_packets");
    const auto* fh = mux_->metrics().find_counter("duet.runtime.fast_tier.hits");
    const auto* fm = mux_->metrics().find_counter("duet.runtime.fast_tier.misses");
    const auto* fr = mux_->metrics().find_counter("duet.runtime.fast_tier.rebuilds");
    std::snprintf(buf, sizeof(buf),
                  "rx %llu | tx %llu | flows %zu | dip packets %llu\n"
                  "fast tier: %llu hits | %llu misses | %llu rebuilds",
                  static_cast<unsigned long long>(rx != nullptr ? rx->value() : 0),
                  static_cast<unsigned long long>(tx != nullptr ? tx->value() : 0),
                  mux_->flow_table_size(),
                  static_cast<unsigned long long>(dips_.total_packets()),
                  static_cast<unsigned long long>(fh != nullptr ? fh->value() : 0),
                  static_cast<unsigned long long>(fm != nullptr ? fm->value() : 0),
                  static_cast<unsigned long long>(fr != nullptr ? fr->value() : 0));
    return ok(text + buf);
  }

  if (cmd == "audit") {
    const audit::InvariantAuditor auditor;
    auto report = auditor.audit(audit::SystemSnapshot::capture(ctl));
    report.merge(auditor.audit_journal(ctl.journal()));
    if (report.clean()) return ok("audit clean (" + std::to_string(
                                      audit::InvariantAuditor::invariants().size()) +
                                  " invariants)");
    std::string text = report.summary();
    for (const auto& v : report.violations) {
      text += "\n[" + v.invariant + "] " + v.message;
    }
    return fail(std::move(text));
  }

  // Everything below names a VIP as argv[1].
  if (argv.size() < 2) return usage(cmd + " requires a VIP argument");
  const auto vip = Ipv4Address::parse(argv[1]);
  if (!vip.has_value()) return usage("bad VIP address: " + argv[1]);
  const bool known = ctl.owner_of(*vip) != DuetController::Owner::kNone;

  if (cmd == "add-vip") {
    if (argv.size() < 3) return usage("add-vip VIP DIP...");
    if (known) return fail("VIP already exists: " + argv[1]);
    if (!kVipAggregate.contains(*vip)) {
      return fail("VIP outside the served aggregate " + kVipAggregate.to_string());
    }
    Op op;
    op.kind = OpKind::kAddVip;
    op.vip = *vip;
    for (std::size_t i = 2; i < argv.size(); ++i) {
      const auto dip = Ipv4Address::parse(argv[i]);
      if (!dip.has_value()) return usage("bad DIP address: " + argv[i]);
      op.addrs.push_back(dip->value());
    }
    auto response = apply_checked(std::move(op), "added " + argv[1] + " with " +
                                                    std::to_string(argv.size() - 2) +
                                                    " DIPs (on smux backstop)");
    if (response.ok()) push_vip(*vip);
    return response;
  }

  if (cmd == "add-dip" || cmd == "remove-dip") {
    if (argv.size() != 3) return usage(cmd + " VIP DIP");
    if (!known) return fail("unknown VIP: " + argv[1]);
    const auto dip = Ipv4Address::parse(argv[2]);
    if (!dip.has_value()) return usage("bad DIP address: " + argv[2]);
    const auto pool = ctl.dips_of(*vip);
    const bool have = std::find(pool.begin(), pool.end(), *dip) != pool.end();
    Op op;
    op.vip = *vip;
    op.dip = *dip;
    std::string text;
    if (cmd == "add-dip") {
      if (have) return fail("DIP already in the pool: " + argv[2]);
      op.kind = OpKind::kAddDip;
      text = "added DIP " + argv[2] + " (VIP bounced to smux backstop)";
    } else {
      if (!have) return fail("no such DIP in the pool: " + argv[2]);
      op.kind = OpKind::kRemoveDip;
      text = pool.size() == 1 ? "removed last DIP; VIP " + argv[1] + " removed"
                              : "removed DIP " + argv[2] + " (resilient hashing, no reshuffle)";
    }
    auto response = apply_checked(std::move(op), std::move(text));
    if (response.ok()) push_vip(*vip);
    return response;
  }

  if (cmd == "remove-vip") {
    if (!known) return fail("unknown VIP: " + argv[1]);
    Op op;
    op.kind = OpKind::kRemoveVip;
    op.vip = *vip;
    auto response = apply_checked(std::move(op), "removed " + argv[1]);
    if (response.ok()) push_vip(*vip);
    return response;
  }

  if (cmd == "set-engine") {
    if (argv.size() != 3) return usage("set-engine VIP stateful|stateless|clear");
    if (!known) return fail("unknown VIP: " + argv[1]);
    Op op;
    op.kind = OpKind::kSetEngineOverride;
    op.vip = *vip;
    if (argv[2] != "clear") {
      SmuxEngine engine;
      if (!parse_smux_engine(argv[2].c_str(), &engine)) {
        return usage("engine must be stateful, stateless, or clear");
      }
      op.engine = static_cast<std::uint8_t>(engine);
    }
    return apply_checked(std::move(op), "engine override: " + argv[2]);
  }

  if (cmd == "migrate") {
    if (argv.size() != 3) return usage("migrate VIP SWITCH|smux");
    if (!known) return fail("unknown VIP: " + argv[1]);
    Op op;
    op.kind = OpKind::kMigrateVip;
    op.vip = *vip;
    if (argv[2] != "smux") {
      const auto sw = parse_u32(argv[2]);
      if (!sw.has_value() || *sw >= fabric_->topo.switch_count()) {
        return usage("bad migration target: " + argv[2]);
      }
      op.sw = *sw;
    }
    auto response = apply_checked(std::move(op), "");
    if (!response.ok()) return response;
    // The §4.2 two-phase move ran inside apply; report where the VIP landed
    // (a rejecting target leaves it safely on the SMux backstop).
    if (const auto home = ctl.hmux_home(*vip); home.has_value()) {
      response.text = argv[1] + " now on hmux switch " + std::to_string(*home);
    } else {
      response.text = argv[1] + " now on the smux pool";
      if (argv[2] != "smux") response.status = 1;  // target rejected the VIP
    }
    return response;
  }

  return usage("unknown command: " + cmd);
}

void Duetd::stop(bool snapshot) {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stop_accept_.store(true, std::memory_order_release);
  ops_loop_.wake();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(socket_path_.c_str());
  if (snapshot) {
    std::lock_guard<std::mutex> lock(op_mu_);
    if (!store_->snapshot_now()) {
      DUET_LOG_WARN << "duetd: shutdown snapshot failed; recovery will replay the op log";
    }
  }
  mux_->shutdown();
  mux_->join();
  dips_.shutdown();
  dips_.join();
}

}  // namespace duet::persist
