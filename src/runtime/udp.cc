#include "runtime/udp.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/hot.h"
#include "util/logging.h"

// recvmmsg/sendmmsg are Linux-only; everywhere else the same interface runs
// a recvfrom/sendto loop (correct, just one syscall per datagram).
#if defined(__linux__)
#define DUET_RUNTIME_HAVE_MMSG 1
#else
#define DUET_RUNTIME_HAVE_MMSG 0
#endif

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace duet::runtime {

const bool kBatchIoAvailable = DUET_RUNTIME_HAVE_MMSG != 0;

std::size_t online_cpus() noexcept {
#if defined(__linux__)
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
#else
  return 1;
#endif
}

bool pin_thread_to_cpu(std::size_t cpu) noexcept {
#if defined(__linux__)
  if (cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

void name_this_thread(const char* name) noexcept {
#if defined(__linux__)
  (void)pthread_setname_np(pthread_self(), name);
#else
  (void)name;
#endif
}

namespace {

sockaddr_in to_sockaddr(Endpoint e) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(e.port);
  sa.sin_addr.s_addr = htonl(e.addr.value());
  return sa;
}

Endpoint from_sockaddr(const sockaddr_in& sa) {
  return Endpoint{Ipv4Address{ntohl(sa.sin_addr.s_addr)}, ntohs(sa.sin_port)};
}

bool wait_writable(int fd, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLOUT;
  return poll(&p, 1, timeout_ms) > 0;
}

}  // namespace

std::string Endpoint::to_string() const {
  return addr.to_string() + ":" + std::to_string(port);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

std::optional<UdpSocket> UdpSocket::bind(Endpoint at, bool reuse_port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return std::nullopt;
  UdpSocket sock;
  sock.fd_ = fd;

  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return std::nullopt;

  const int one = 1;
  if (reuse_port) {
#ifdef SO_REUSEPORT
    if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) return std::nullopt;
#else
    return std::nullopt;  // multi-worker sharding needs SO_REUSEPORT
#endif
  }
  // Large kernel buffers: loopback bursts at 100k+ pps overrun the defaults
  // long before the worker gets scheduled. Best-effort (clamped by rmem_max).
  const int kBufBytes = 4 * 1024 * 1024;
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kBufBytes, sizeof(kBufBytes));
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kBufBytes, sizeof(kBufBytes));
  (void)one;

  const sockaddr_in sa = to_sockaddr(at);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0) {
    DUET_LOG_WARN << "bind(" << at.to_string() << ") failed: " << std::strerror(errno);
    return std::nullopt;
  }
  return sock;
}

Endpoint UdpSocket::local() const {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (fd_ < 0 || getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) < 0) return {};
  return from_sockaddr(sa);
}

bool UdpSocket::send_to(std::span<const std::uint8_t> bytes, Endpoint to) const {
  const sockaddr_in sa = to_sockaddr(to);
  const ssize_t n = ::sendto(fd_, bytes.data(), bytes.size(), 0,
                             reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  return n == static_cast<ssize_t>(bytes.size());
}

// --- BatchIo -----------------------------------------------------------------

struct BatchIo::Scratch {
#if DUET_RUNTIME_HAVE_MMSG
  std::vector<mmsghdr> rx_hdrs;
  std::vector<iovec> rx_iovs;
  std::vector<mmsghdr> tx_hdrs;
  std::vector<iovec> tx_iovs;
#endif
  std::vector<sockaddr_in> rx_addrs;
  std::vector<sockaddr_in> tx_addrs;
};

BatchIo::BatchIo(std::size_t batch, std::size_t mtu, std::size_t headroom)
    : batch_(batch < 1 ? 1 : batch),
      mtu_(mtu),
      headroom_(headroom),
      stride_(headroom + mtu),
      pool_(batch_ * stride_),
      scratch_(std::make_unique<Scratch>()) {
  scratch_->rx_addrs.resize(batch_);
  scratch_->tx_addrs.resize(batch_);
#if DUET_RUNTIME_HAVE_MMSG
  scratch_->rx_hdrs.resize(batch_);
  scratch_->rx_iovs.resize(batch_);
  scratch_->tx_hdrs.resize(batch_);
  scratch_->tx_iovs.resize(batch_);
  for (std::size_t i = 0; i < batch_; ++i) {
    scratch_->rx_iovs[i].iov_base = pool_.data() + i * stride_ + headroom_;
    scratch_->rx_iovs[i].iov_len = mtu_;
    msghdr& mh = scratch_->rx_hdrs[i].msg_hdr;
    mh = msghdr{};
    mh.msg_name = &scratch_->rx_addrs[i];
    mh.msg_iov = &scratch_->rx_iovs[i];
    mh.msg_iovlen = 1;
  }
#endif
}

BatchIo::~BatchIo() = default;

// Purity roots (DESIGN.md §14): the per-batch syscall legs. Syscall wrappers
// themselves are leaves the gate permits; what the gate enforces is that no
// formatting, locking, or per-packet allocation crept in around them (the
// one amortized exception, out's vector growth, is allow-listed).
DUET_HOT std::size_t BatchIo::recv_batch(int fd, std::span<RxPacket> out) {
  DUET_HOT_CHECK(out.size() >= batch_, "recv_batch descriptor span smaller than batch()");
#if DUET_RUNTIME_HAVE_MMSG
  // The kernel rewrites msg_namelen and iov_len stays fixed, so only the
  // namelen fields need resetting between calls.
  for (std::size_t i = 0; i < batch_; ++i) {
    scratch_->rx_hdrs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }
  const int n = recvmmsg(fd, scratch_->rx_hdrs.data(), static_cast<unsigned>(batch_),
                         MSG_DONTWAIT, nullptr);
  if (n <= 0) return 0;
  for (int i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] = RxPacket{
        std::span<std::uint8_t>(pool_.data() + static_cast<std::size_t>(i) * stride_ + headroom_,
                                scratch_->rx_hdrs[i].msg_len),
        from_sockaddr(scratch_->rx_addrs[i])};
  }
  return static_cast<std::size_t>(n);
#else
  std::size_t n = 0;
  while (n < batch_) {
    std::uint8_t* slot = pool_.data() + n * stride_ + headroom_;
    sockaddr_in& sa = scratch_->rx_addrs[n];
    socklen_t sa_len = sizeof(sa);
    const ssize_t got = ::recvfrom(fd, slot, mtu_, 0, reinterpret_cast<sockaddr*>(&sa), &sa_len);
    if (got < 0) break;  // EAGAIN: socket drained
    out[n] = RxPacket{std::span<std::uint8_t>(slot, static_cast<std::size_t>(got)),
                      from_sockaddr(sa)};
    ++n;
  }
  return n;
#endif
}

DUET_HOT std::size_t BatchIo::send_batch(int fd, std::span<const TxPacket> items,
                                         int flush_wait_ms) {
  std::size_t sent = 0;
  while (sent < items.size()) {
    const std::size_t chunk = std::min(items.size() - sent, batch_);
#if DUET_RUNTIME_HAVE_MMSG
    for (std::size_t i = 0; i < chunk; ++i) {
      const TxPacket& t = items[sent + i];
      scratch_->tx_addrs[i] = to_sockaddr(t.to);
      scratch_->tx_iovs[i].iov_base = const_cast<std::uint8_t*>(t.data);
      scratch_->tx_iovs[i].iov_len = t.len;
      msghdr& mh = scratch_->tx_hdrs[i].msg_hdr;
      mh = msghdr{};
      mh.msg_name = &scratch_->tx_addrs[i];
      mh.msg_namelen = sizeof(sockaddr_in);
      mh.msg_iov = &scratch_->tx_iovs[i];
      mh.msg_iovlen = 1;
    }
    std::size_t done = 0;
    while (done < chunk) {
      const int n = sendmmsg(fd, scratch_->tx_hdrs.data() + done,
                             static_cast<unsigned>(chunk - done), 0);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) && flush_wait_ms > 0 &&
          wait_writable(fd, flush_wait_ms)) {
        continue;
      }
      return sent + done;  // persistent backpressure or a hard error: drop the rest
    }
    sent += done;
#else
    for (std::size_t i = 0; i < chunk; ++i) {
      const TxPacket& t = items[sent + i];
      const sockaddr_in sa = to_sockaddr(t.to);
      for (;;) {
        const ssize_t n = ::sendto(fd, t.data, t.len, 0,
                                   reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
        if (n >= 0) break;
        if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) &&
            flush_wait_ms > 0 && wait_writable(fd, flush_wait_ms)) {
          continue;
        }
        return sent + i;
      }
    }
    sent += chunk;
#endif
  }
  return sent;
}

}  // namespace duet::runtime
