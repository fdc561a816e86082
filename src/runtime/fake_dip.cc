#include "runtime/fake_dip.h"

#include "net/wire.h"

#if defined(__linux__)
#include <netinet/in.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <poll.h>
#endif

namespace duet::runtime {

namespace {

// Identity i is 127.0.0.2 + i, up to 127.255.255.254: never 127.0.0.1 (the
// clients' and the mux's address), never the /8's network or broadcast.
constexpr Ipv4Address kFirstIdentity{127, 0, 0, 2};
constexpr std::uint32_t kMaxIdentities = Ipv4Address{127, 255, 255, 254}.value() -
                                         kFirstIdentity.value() + 1;

}  // namespace

#if defined(__linux__)

constexpr std::size_t kMtu = 2048;

// One arena for the pool's one socket: datagram buffers, and the mmsghdr,
// iovec, address and control arrays, all wired once here. Only the
// kernel-written lengths are reset per receive, and per echo only the
// destination, payload and pktinfo source are written.
struct FakeDipPool::Io {
  struct alignas(cmsghdr) Control {
    unsigned char bytes[CMSG_SPACE(sizeof(in_pktinfo))];
  };

  explicit Io(std::size_t batch_)
      : batch(batch_ < 1 ? 1 : batch_),
        buffers(batch * kMtu),
        rx_hdrs(batch),
        rx_iovs(batch),
        rx_ctrl(batch),
        tx_hdrs(batch),
        tx_iovs(batch),
        tx_addrs(batch),
        tx_ctrl(batch) {
    for (std::size_t i = 0; i < batch; ++i) {
      rx_iovs[i] = iovec{buffers.data() + i * kMtu, kMtu};
      msghdr& rh = rx_hdrs[i].msg_hdr;
      rh = msghdr{};
      rh.msg_iov = &rx_iovs[i];
      rh.msg_iovlen = 1;
      rh.msg_control = rx_ctrl[i].bytes;

      msghdr& th = tx_hdrs[i].msg_hdr;
      th = msghdr{};
      th.msg_name = &tx_addrs[i];
      th.msg_namelen = sizeof(sockaddr_in);
      th.msg_iov = &tx_iovs[i];
      th.msg_iovlen = 1;
      th.msg_control = tx_ctrl[i].bytes;
      th.msg_controllen = sizeof(tx_ctrl[i].bytes);
      cmsghdr* c = CMSG_FIRSTHDR(&th);
      c->cmsg_level = IPPROTO_IP;
      c->cmsg_type = IP_PKTINFO;
      c->cmsg_len = CMSG_LEN(sizeof(in_pktinfo));
    }
  }

  // The address datagram i of the last receive was sent to, or 0.0.0.0
  // when it carried no IP_PKTINFO.
  Ipv4Address arrival(std::size_t i) {
    msghdr& rh = rx_hdrs[i].msg_hdr;
    for (cmsghdr* c = CMSG_FIRSTHDR(&rh); c != nullptr; c = CMSG_NXTHDR(&rh, c)) {
      if (c->cmsg_level == IPPROTO_IP && c->cmsg_type == IP_PKTINFO) {
        in_pktinfo info;
        std::memcpy(&info, CMSG_DATA(c), sizeof(info));
        return Ipv4Address{ntohl(info.ipi_addr.s_addr)};
      }
    }
    return Ipv4Address{};
  }

  std::span<std::uint8_t> datagram(std::size_t i) {
    return {buffers.data() + i * kMtu, rx_hdrs[i].msg_len};
  }

  // Stages echo slot k: `payload` to `to`, sourced from `from`.
  void stage(std::size_t k, std::span<std::uint8_t> payload, Endpoint to,
             Ipv4Address from) {
    tx_addrs[k] = sockaddr_in{};
    tx_addrs[k].sin_family = AF_INET;
    tx_addrs[k].sin_port = htons(to.port);
    tx_addrs[k].sin_addr.s_addr = htonl(to.addr.value());
    tx_iovs[k] = iovec{payload.data(), payload.size()};
    in_pktinfo info{};
    info.ipi_spec_dst.s_addr = htonl(from.value());
    std::memcpy(CMSG_DATA(CMSG_FIRSTHDR(&tx_hdrs[k].msg_hdr)), &info, sizeof(info));
  }

  std::size_t recv(int fd) {
    for (std::size_t i = 0; i < batch; ++i) {
      rx_hdrs[i].msg_hdr.msg_controllen = sizeof(rx_ctrl[i].bytes);
      rx_hdrs[i].msg_hdr.msg_flags = 0;
    }
    const int n = recvmmsg(fd, rx_hdrs.data(), static_cast<unsigned>(batch), MSG_DONTWAIT, nullptr);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  // Sends staged slots [0, count), waiting up to 5 ms for buffer space
  // before dropping the rest.
  void send(int fd, std::size_t count) {
    std::size_t done = 0;
    while (done < count) {
      const int n = sendmmsg(fd, tx_hdrs.data() + done, static_cast<unsigned>(count - done), 0);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      pollfd p{fd, POLLOUT, 0};
      if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) && poll(&p, 1, 5) > 0) {
        continue;
      }
      return;
    }
  }

  std::size_t batch;
  std::vector<std::uint8_t> buffers;
  std::vector<mmsghdr> rx_hdrs;
  std::vector<iovec> rx_iovs;
  std::vector<Control> rx_ctrl;
  std::vector<mmsghdr> tx_hdrs;
  std::vector<iovec> tx_iovs;
  std::vector<sockaddr_in> tx_addrs;
  std::vector<Control> tx_ctrl;
};

FakeDipPool::FakeDipPool(Options options) : opts_(options) {
  auto sock = UdpSocket::bind(Endpoint{Ipv4Address{}, 0});
  if (!sock) return;
  static constexpr char kLoopbackDevice[] = "lo";
  const int one = 1;
  if (setsockopt(sock->fd(), SOL_SOCKET, SO_BINDTODEVICE, kLoopbackDevice,
                 sizeof(kLoopbackDevice)) < 0 ||
      setsockopt(sock->fd(), IPPROTO_IP, IP_PKTINFO, &one, sizeof(one)) < 0) {
    return;
  }
  if (!loop_.add(sock->fd(), [this] { pump(); })) return;
  port_ = sock->local().port;
  sock_ = std::move(*sock);
  io_ = std::make_unique<Io>(opts_.batch);
}

#else

struct FakeDipPool::Io {};

FakeDipPool::FakeDipPool(Options options) : opts_(options) {}

#endif

FakeDipPool::~FakeDipPool() {
  shutdown();
  join();
}

std::vector<std::optional<Endpoint>> FakeDipPool::add_dips(std::span<const Ipv4Address> dips) {
  std::vector<std::optional<Endpoint>> out(dips.size());
  if (!sock_.valid()) return out;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < dips.size(); ++i) {
    const auto [it, fresh] =
        index_.try_emplace(dips[i], static_cast<std::uint32_t>(slots_.size()));
    if (fresh) {
      if (slots_.size() == kMaxIdentities) {  // 127/8 is exhausted
        index_.erase(it);
        continue;
      }
      slots_.push_back(Slot{dips[i]});
    }
    out[i] = Endpoint{Ipv4Address{kFirstIdentity.value() + it->second}, port_};
  }
  return out;
}

std::optional<Endpoint> FakeDipPool::add_dip(Ipv4Address dip) {
  return add_dips(std::span<const Ipv4Address>(&dip, 1)).front();
}

bool FakeDipPool::start() {
  if (thread_.joinable() || !sock_.valid()) return false;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] {
    name_this_thread("duet-echo");
    loop_.run(stop_, opts_.tick_ms);
  });
  return true;
}

void FakeDipPool::shutdown() {
  stop_.store(true, std::memory_order_release);
  loop_.wake();
}

void FakeDipPool::join() {
  if (thread_.joinable()) thread_.join();
}

std::uint64_t FakeDipPool::packets_at(Ipv4Address dip) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(dip);
  return it == index_.end() ? 0 : slots_[it->second].packets;
}

std::uint64_t FakeDipPool::rejects_at(Ipv4Address dip) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(dip);
  return it == index_.end() ? 0 : slots_[it->second].rejects;
}

std::uint64_t FakeDipPool::total_packets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.packets;
  return total;
}

void FakeDipPool::pump() {
#if defined(__linux__)
  Io& io = *io_;
  for (;;) {
    const std::size_t n = io.recv(sock_.fd());
    if (n == 0) break;
    std::size_t echoes = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < n; ++i) {
        const Ipv4Address at = io.arrival(i);
        // Unsigned wrap sends addresses below the first identity out of range.
        const std::uint32_t slot = at.value() - kFirstIdentity.value();
        if (slot >= slots_.size()) continue;  // not a DIP: never echoed
        Slot& s = slots_[slot];
        ++s.packets;
        // peek_encap validates exactly like parse_packet but allocates nothing.
        const auto bytes = io.datagram(i);
        const auto peek = peek_encap(bytes);
        if (!peek.has_value() || peek->outer_dst != s.dip) {
          ++s.rejects;
          continue;
        }
        io.stage(echoes++, bytes.subspan(kIpv4HeaderBytes),  // decap: drop the outer header
                 Endpoint{opts_.reply_addr, peek->inner_src_port}, at);
      }
    }
    io.send(sock_.fd(), echoes);
    if (n < io.batch) break;
  }
#endif
}

}  // namespace duet::runtime
