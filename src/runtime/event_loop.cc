#include "runtime/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#define DUET_RUNTIME_HAVE_EPOLL 1
#else
#define DUET_RUNTIME_HAVE_EPOLL 0
#endif

namespace duet::runtime {

namespace {
using Clock = std::chrono::steady_clock;

int elapsed_ms(Clock::time_point since) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - since).count());
}
}  // namespace

struct EventLoop::Impl {
  std::unordered_map<int, std::function<void()>> callbacks;
  // Wake channel: eventfd on Linux (rd == wr), a non-blocking pipe elsewhere.
  int wake_rd = -1;
  int wake_wr = -1;
#if DUET_RUNTIME_HAVE_EPOLL
  int epoll_fd = -1;
#else
  std::vector<pollfd> pollset;  // rebuilt when `dirty`
  bool dirty = true;
#endif

  bool ok() const { return wake_rd >= 0 && wake_wr >= 0; }

  void drain_wake() const {
    std::uint8_t buf[64];
    while (::read(wake_rd, buf, sizeof(buf)) > 0) {
    }
  }
};

EventLoop::EventLoop() : impl_(std::make_unique<Impl>()) {
#if DUET_RUNTIME_HAVE_EPOLL
  impl_->epoll_fd = epoll_create1(0);
  const int efd = eventfd(0, EFD_NONBLOCK);
  impl_->wake_rd = impl_->wake_wr = efd;
  if (impl_->epoll_fd >= 0 && efd >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = efd;
    if (epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, efd, &ev) < 0) {
      ::close(impl_->epoll_fd);
      impl_->epoll_fd = -1;
    }
  }
  if (impl_->epoll_fd < 0) {
    if (efd >= 0) ::close(efd);
    impl_->wake_rd = impl_->wake_wr = -1;
  }
#else
  int fds[2];
  if (pipe(fds) == 0) {
    for (const int fd : fds) {
      const int flags = fcntl(fd, F_GETFL, 0);
      (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
    impl_->wake_rd = fds[0];
    impl_->wake_wr = fds[1];
  }
#endif
}

EventLoop::~EventLoop() {
#if DUET_RUNTIME_HAVE_EPOLL
  if (impl_->epoll_fd >= 0) ::close(impl_->epoll_fd);
  if (impl_->wake_rd >= 0) ::close(impl_->wake_rd);  // eventfd: rd == wr
#else
  if (impl_->wake_rd >= 0) ::close(impl_->wake_rd);
  if (impl_->wake_wr >= 0) ::close(impl_->wake_wr);
#endif
}

bool EventLoop::ok() const noexcept { return impl_->ok(); }

bool EventLoop::add(int fd, std::function<void()> on_readable) {
  if (!impl_->ok() || fd < 0) return false;
#if DUET_RUNTIME_HAVE_EPOLL
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) return false;
#else
  impl_->dirty = true;
#endif
  impl_->callbacks[fd] = std::move(on_readable);
  return true;
}

bool EventLoop::remove(int fd) {
  if (impl_->callbacks.erase(fd) == 0) return false;
#if DUET_RUNTIME_HAVE_EPOLL
  (void)epoll_ctl(impl_->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
#else
  impl_->dirty = true;
#endif
  return true;
}

void EventLoop::wake() {
  if (impl_->wake_wr < 0) return;
#if DUET_RUNTIME_HAVE_EPOLL
  const std::uint64_t one = 1;
  (void)::write(impl_->wake_wr, &one, sizeof(one));
#else
  const std::uint8_t one = 1;
  (void)::write(impl_->wake_wr, &one, sizeof(one));
#endif
}

void EventLoop::run(const std::atomic<bool>& stop, int tick_ms,
                    const std::function<void()>& on_tick,
                    const std::function<void()>& on_wake) {
  if (!impl_->ok()) return;
  if (tick_ms < 1) tick_ms = 1;
  auto last_tick = Clock::now();

  while (!stop.load(std::memory_order_acquire)) {
    const int waited = elapsed_ms(last_tick);
    const int timeout = waited >= tick_ms ? 0 : tick_ms - waited;

#if DUET_RUNTIME_HAVE_EPOLL
    epoll_event events[64];
    const int n = epoll_wait(impl_->epoll_fd, events, 64, timeout);
    // The wake goes first, so whatever was queued before wake() is in place
    // before this round's datagrams are dispatched.
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == impl_->wake_rd) {
        impl_->drain_wake();
        if (on_wake) on_wake();
        break;
      }
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == impl_->wake_rd) continue;
      if (const auto it = impl_->callbacks.find(fd); it != impl_->callbacks.end()) it->second();
    }
#else
    if (impl_->dirty) {
      impl_->pollset.clear();
      impl_->pollset.push_back(pollfd{impl_->wake_rd, POLLIN, 0});
      for (const auto& [fd, cb] : impl_->callbacks) {
        impl_->pollset.push_back(pollfd{fd, POLLIN, 0});
      }
      impl_->dirty = false;
    }
    const int n = poll(impl_->pollset.data(), impl_->pollset.size(), timeout);
    if (n > 0) {
      // pollset[0] is the wake channel, so the wake goes first here too.
      for (const pollfd& p : impl_->pollset) {
        if ((p.revents & POLLIN) == 0) continue;
        if (p.fd == impl_->wake_rd) {
          impl_->drain_wake();
          if (on_wake) on_wake();
          continue;
        }
        const auto it = impl_->callbacks.find(p.fd);
        if (it != impl_->callbacks.end()) it->second();
        if (impl_->dirty) break;  // callback mutated the fd set
      }
    }
#endif

    if (elapsed_ms(last_tick) >= tick_ms) {
      if (on_tick) on_tick();
      last_tick = Clock::now();
    }
  }
}

}  // namespace duet::runtime
