#include "runtime/fake_dip.h"

#include "net/wire.h"

namespace duet::runtime {

struct FakeDipPool::DipSock {
  DipSock(Ipv4Address dip_, UdpSocket sock_) : dip(dip_), sock(std::move(sock_)) {}

  Ipv4Address dip;
  UdpSocket sock;
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> rejects{0};
};

FakeDipPool::FakeDipPool(Options options) : opts_(options), io_(options.batch) {
  rx_.resize(io_.batch());  // fixed-size descriptor array: recv_batch never grows it
  tx_.reserve(io_.batch());
}

FakeDipPool::~FakeDipPool() {
  shutdown();
  join();
}

std::vector<std::optional<Endpoint>> FakeDipPool::add_dips(std::span<const Ipv4Address> dips) {
  std::vector<std::optional<Endpoint>> out;
  out.reserve(dips.size());
  std::vector<std::unique_ptr<DipSock>> bound;
  for (const Ipv4Address dip : dips) {
    auto sock = UdpSocket::bind(Endpoint{opts_.bind_addr, 0});
    if (!sock) {
      out.emplace_back();
      continue;
    }
    out.emplace_back(sock->local());
    bound.push_back(std::make_unique<DipSock>(dip, std::move(*sock)));
  }
  if (bound.empty()) return out;
  if (!running_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(dips_mu_);
    for (auto& ds : bound) dips_.push_back(std::move(ds));
  } else {
    // Live add: the sockets already accept (the kernel queues until the
    // woken serving loop registers them), so the returned endpoints can be
    // mapped immediately.
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      for (auto& ds : bound) pending_.push_back(std::move(ds));
    }
    loop_.wake();
  }
  return out;
}

std::optional<Endpoint> FakeDipPool::add_dip(Ipv4Address dip) {
  return add_dips(std::span<const Ipv4Address>(&dip, 1)).front();
}

void FakeDipPool::drain_pending() {
  std::vector<std::unique_ptr<DipSock>> batch;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (pending_.empty()) return;
    batch.swap(pending_);
  }
  for (auto& ds : batch) {
    DipSock* raw = ds.get();
    loop_.add(raw->sock.fd(), [this, raw] { pump(*raw); });
    std::lock_guard<std::mutex> lock(dips_mu_);
    dips_.push_back(std::move(ds));
  }
}

bool FakeDipPool::start() {
  if (thread_.joinable() || !loop_.ok()) return false;
  stop_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(dips_mu_);
    for (const auto& ds : dips_) {
      DipSock* raw = ds.get();
      if (!loop_.add(raw->sock.fd(), [this, raw] { pump(*raw); })) return false;
    }
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] {
    name_this_thread("duet-echo");
    loop_.run(stop_, opts_.tick_ms, nullptr, [this] { drain_pending(); });
  });
  return true;
}

void FakeDipPool::shutdown() {
  stop_.store(true, std::memory_order_release);
  loop_.wake();
}

void FakeDipPool::join() {
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

std::uint64_t FakeDipPool::packets_at(Ipv4Address dip) const {
  std::lock_guard<std::mutex> lock(dips_mu_);
  for (const auto& ds : dips_) {
    if (ds->dip == dip) return ds->packets.load(std::memory_order_relaxed);
  }
  return 0;
}

std::uint64_t FakeDipPool::rejects_at(Ipv4Address dip) const {
  std::lock_guard<std::mutex> lock(dips_mu_);
  for (const auto& ds : dips_) {
    if (ds->dip == dip) return ds->rejects.load(std::memory_order_relaxed);
  }
  return 0;
}

std::uint64_t FakeDipPool::total_packets() const {
  std::lock_guard<std::mutex> lock(dips_mu_);
  std::uint64_t total = 0;
  for (const auto& ds : dips_) total += ds->packets.load(std::memory_order_relaxed);
  return total;
}

void FakeDipPool::pump(DipSock& ds) {
  for (;;) {
    const std::size_t n = io_.recv_batch(ds.sock.fd(), rx_);
    if (n == 0) break;
    tx_.clear();
    std::uint64_t rejects = 0;
    for (const RxPacket& p : std::span<const RxPacket>(rx_.data(), n)) {
      // Only properly encapsulated datagrams addressed to THIS DIP echo;
      // anything else (stray traffic, un-tunneled packets) is rejected, so a
      // mux bug that skips encap shows up as rejects, not silent success.
      // peek_encap validates exactly like parse_packet but allocates nothing.
      const auto peek = peek_encap(p.bytes);
      if (!peek.has_value() || peek->outer_dst != ds.dip) {
        ++rejects;
        continue;
      }
      const auto inner = p.bytes.subspan(kIpv4HeaderBytes);  // decap: drop the outer header
      tx_.push_back(TxPacket{inner.data(), inner.size(),
                             Endpoint{opts_.reply_addr, peek->inner_src_port}});
    }
    ds.packets.fetch_add(n, std::memory_order_relaxed);
    if (rejects > 0) ds.rejects.fetch_add(rejects, std::memory_order_relaxed);
    // The batch leaves through THIS DIP's socket, so each echo's source
    // endpoint still names the DIP that served it.
    io_.send_batch(ds.sock.fd(), tx_, 5);
    if (n < io_.batch()) break;
  }
}

}  // namespace duet::runtime
