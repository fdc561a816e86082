#include "plan.h"

#include <algorithm>
#include <memory>

#include "net/hash.h"
#include "persist/state_image.h"
#include "persist/store.h"
#include "util.h"
#include "workload/tracegen.h"

namespace duetbench {

using duet::persist::Op;
using duet::persist::OpKind;

namespace {

double gauge(const duet::DuetController& c, const char* name) {
  const auto* g = c.metrics().find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

}  // namespace

PlanInputs make_plan_inputs() {
  // The `small` bench scale: 1/32 of the paper's datacenter.
  PlanInputs in{duet::build_fattree(duet::FatTreeParams::scaled(5, 10, 5)), {}, {}, 1, {}, {}};
  in.config.host_table_capacity = 512;
  duet::TraceParams tp;
  tp.vip_count = 1000;
  tp.total_gbps = 6.7e3 / 32.0;  // paper: 6.2-7.1 Tbps
  tp.epochs = 18;
  tp.arrival_fraction = 0.15;  // Fig 20: VIPs arrive over the three hours
  in.trace = duet::generate_trace(in.fabric, tp);

  Op deploy;
  deploy.kind = OpKind::kDeploySmuxes;
  deploy.aggregate = in.trace.vip_aggregate;
  const auto& tors = in.fabric.tors;
  deploy.addrs = {tors.front(), tors[tors.size() / 2], tors.back()};
  in.install.push_back(deploy);
  for (const auto& v : in.trace.vips) {
    Op op;
    op.kind = OpKind::kAddVip;
    op.vip = v.vip;
    for (const auto d : v.dips) op.addrs.push_back(d.value());
    in.install.push_back(std::move(op));
  }
  for (std::size_t e = 0; e < tp.epochs; ++e) {
    in.demands.push_back(duet::build_demands(in.fabric, in.trace, e));
  }
  return in;
}

PlanPass run_plan_pass(const PlanInputs& in, const std::string& root,
                       duet::persist::FsyncPolicy fsync, bool reopen, Tracer& tracer) {
  PlanPass pass;
  auto dir = ScratchDir::make(root);
  if (!dir.has_value()) {
    pass.error = "cannot create a data dir under " + root;
    return pass;
  }
  duet::persist::StoreOptions so;
  so.dir = dir->path();
  so.fsync = fsync;
  so.snapshot_every_ops = 256;
  const auto open = [&](std::string* error) {
    return duet::persist::PersistentController::open(in.fabric, in.config,
                                                     duet::FlowHasher{in.seed}, in.seed, so,
                                                     error);
  };

  SpanScope whole(tracer, "plan.pass", 0);
  std::string error;
  double clock_us = 0.0;
  auto store = open(&error);
  if (store == nullptr) {
    pass.error = "plan store: " + error;
    return pass;
  }
  for (Op op : in.install) {
    op.t_us = clock_us += 1.0;
    if (!store->apply(std::move(op))) {
      pass.error = "journal append failed during VIP install";
      return pass;
    }
  }

  for (std::size_t e = 0; e < in.demands.size(); ++e) {
    Op op;
    op.kind = OpKind::kRunEpoch;
    op.flag = e > 0;  // the first epoch plans from scratch, the rest are sticky
    op.demands = in.demands[e];
    op.t_us = clock_us += 600e6;  // 10-minute epochs
    const std::uint64_t id = tracer.enabled() ? tracer.next_id() : 0;
    SpanScope unit(tracer, "plan.epoch", id, whole.handle());
    const std::uint64_t a = now_ns();
    const double cpu0 = process_cpu_s();
    bool ok = false;
    {
      SpanScope apply(tracer, "persist.apply_epoch", id, unit.handle());
      ok = store->apply(std::move(op));
    }
    const double dt = static_cast<double>(now_ns() - a) / 1e9;
    const double cpu = process_cpu_s() - cpu0;
    if (!ok) {
      pass.error = "journal append failed for epoch " + std::to_string(e);
      return pass;
    }
    if (e > 0) {
      pass.sticky_epoch_s.push_back(dt);
      pass.sticky_epoch_cpu_s.push_back(cpu);
    }
    const auto& c = store->controller();
    pass.hmux_frac.push_back(c.current_assignment().hmux_fraction());
    pass.smuxes.push_back(gauge(c, "duet.controller.smuxes_needed"));
    if (e > 0) {
      const double total = duet::total_demand_gbps(in.demands[e]);
      pass.shuffled_frac.push_back(
          total > 0 ? gauge(c, "duet.controller.migration_shuffled_gbps") / total : 0.0);
    }
  }
  if (!reopen) return pass;

  const auto before = duet::persist::encode_state(store->controller());
  store.reset();
  const std::uint64_t r0 = now_ns();
  {
    SpanScope restart(tracer, "plan.restart", 0, whole.handle());
    store = open(&error);
  }
  pass.restart_s = static_cast<double>(now_ns() - r0) / 1e9;
  if (store == nullptr) {
    pass.error = "plan store reopen: " + error;
    return pass;
  }
  pass.recover_ms = store->recovery().recover_ms;
  pass.replayed = store->recovery().replayed;
  if (store->recovery().audit_summary != "clean") {
    pass.error = "plan store boot audit: " + store->recovery().audit_summary;
  } else if (duet::persist::encode_state(store->controller()) != before) {
    pass.error = "plan store recovered a state that differs from the one it closed";
  }
  return pass;
}

}  // namespace duetbench
