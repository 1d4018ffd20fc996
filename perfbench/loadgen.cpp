#include "loadgen.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "netd/frame.hpp"
#include "sim/rng.hpp"

namespace mccls::perfbench {

namespace {

struct Conn {
  int fd = -1;
  crypto::Bytes out;
  std::size_t out_pos = 0;
  bool want_write = false;
  std::size_t outstanding = 0;
  netd::FrameDecoder in;
};

struct Pending {
  std::uint64_t id = 0;  ///< 0 = free slot
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint32_t tag = 0;
  std::uint32_t conn = 0;
  bool measured = false;
};

constexpr std::size_t kRing = std::size_t{1} << 14;  ///< max outstanding requests
constexpr double kDrainS = 5.0;  ///< max wait for replies after the window

int connect_loopback(std::uint16_t port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

class Generator {
 public:
  Generator(const LoadConfig& config, Traffic& traffic, std::uint64_t& next_id)
      : config_(config), traffic_(traffic), next_id_(next_id), ring_(kRing) {}

  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  LoadResult run();

 private:
  bool send_one(std::size_t c, std::uint64_t due, std::uint64_t now);
  bool flush(std::size_t c);
  bool read_conn(std::size_t c);
  void on_response(std::size_t c, std::span<const std::uint8_t> payload, std::uint64_t now);
  void set_write_interest(std::size_t c, bool on);
  [[nodiscard]] bool sending_allowed(std::uint64_t now) const {
    if (exhausted_) return false;
    if (config_.max_requests > 0) return sent_ < config_.max_requests;
    return now < measure_end_;
  }
  [[nodiscard]] bool in_window(std::uint64_t t) const {
    return t >= warm_end_ && t < measure_end_;
  }

  const LoadConfig& config_;
  Traffic& traffic_;
  std::uint64_t& next_id_;
  std::vector<Pending> ring_;
  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
  LoadResult result_;
  crypto::Bytes payload_;
  std::uint64_t warm_end_ = 0;
  std::uint64_t measure_end_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t outstanding_ = 0;
  bool exhausted_ = false;
};

bool Generator::send_one(std::size_t c, std::uint64_t due, std::uint64_t now) {
  const std::uint64_t id = next_id_;
  payload_.clear();
  const auto tag = traffic_.next(id, payload_);
  if (!tag) {
    exhausted_ = true;
    return false;
  }
  Pending& slot = ring_[id % kRing];
  if (slot.id != 0) {
    result_.ok = false;
    result_.error = "too many outstanding requests";
    exhausted_ = true;
    return false;
  }
  ++next_id_;
  ++sent_;
  ++outstanding_;
  const bool timed = config_.max_requests == 0;
  const std::uint64_t start = config_.rate > 0 ? due : now;
  slot = Pending{.id = id,
                 .due_ns = due,
                 .sent_ns = now,
                 .tag = *tag,
                 .conn = static_cast<std::uint32_t>(c),
                 .measured = !timed || in_window(start)};
  if (slot.measured) {
    ++result_.attempted;
    if (config_.rate > 0) result_.lag_ms.push_back(static_cast<double>(now - due) / 1e6);
  }
  netd::append_frame(conns_[c].out, payload_);
  ++conns_[c].outstanding;
  return true;
}

void Generator::set_write_interest(std::size_t c, bool on) {
  if (conns_[c].want_write == on) return;
  conns_[c].want_write = on;
  epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
  ev.data.u64 = c;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conns_[c].fd, &ev);
}

bool Generator::flush(std::size_t c) {
  Conn& conn = conns_[c];
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      set_write_interest(c, true);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    result_.ok = false;
    result_.error = std::string("send: ") + std::strerror(errno);
    return false;
  }
  conn.out.clear();
  conn.out_pos = 0;
  set_write_interest(c, false);
  return true;
}

void Generator::on_response(std::size_t c, std::span<const std::uint8_t> payload,
                            std::uint64_t now) {
  const auto id = traffic_.response_id(payload);
  Pending* slot = id ? &ring_[*id % kRing] : nullptr;
  if (slot == nullptr || slot->id != *id || slot->conn != c) {
    ++result_.wrong;
    std::fprintf(stderr, "perfbench: reply for no outstanding request\n");
    return;
  }
  const Pending pending = *slot;
  slot->id = 0;
  --outstanding_;
  --conns_[c].outstanding;
  const Verdict verdict = traffic_.judge(pending.tag);
  if (verdict == Verdict::kWrong) ++result_.wrong;
  if (verdict == Verdict::kOk && in_window(now)) ++result_.completed;
  if (!pending.measured) return;
  if (verdict != Verdict::kOk) {
    ++result_.failed;
    return;
  }
  const std::uint64_t start = config_.rate > 0 ? pending.due_ns : pending.sent_ns;
  const std::uint32_t cls = (pending.tag >> 24) == 0 ? 0 : 1;
  result_.latency_ms[cls].add(static_cast<double>(now - start) / 1e6);
  if (config_.tracer != nullptr && config_.tracer->sampled(pending.id)) {
    config_.tracer->record(Span{.trace = pending.id,
                                .start_ns = pending.sent_ns,
                                .end_ns = now,
                                .name = SpanName::kRequest,
                                .attr = static_cast<std::uint8_t>(cls)});
  }
}

bool Generator::read_conn(std::size_t c) {
  Conn& conn = conns_[c];
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      if (!conn.in.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)))) {
        result_.ok = false;
        result_.error = "framing violation from server";
        return false;
      }
      const std::uint64_t now = now_ns();
      while (auto frame = conn.in.next()) on_response(c, *frame, now);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    result_.ok = false;
    result_.error = n == 0 ? "server closed the connection" : std::strerror(errno);
    return false;
  }
}

LoadResult Generator::run() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  conns_.resize(kConnections);
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    conns_[c].fd = connect_loopback(config_.port, result_.error);
    if (conns_[c].fd < 0) {
      result_.ok = false;
      return std::move(result_);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[c].fd, &ev);
  }

  const bool open_loop = config_.rate > 0;
  const bool timed = config_.max_requests == 0;
  const std::uint64_t t0 = now_ns();
  warm_end_ = t0 + static_cast<std::uint64_t>((timed ? kWarmupS : 0) * 1e9);
  measure_end_ = timed ? warm_end_ + static_cast<std::uint64_t>(config_.measure_s * 1e9)
                       : UINT64_MAX;
  sim::Rng arrivals(config_.seed ^ 0xA77A1ULL);
  const double mean_gap_ns = open_loop ? 1e9 / config_.rate : 0;
  std::uint64_t next_due = t0;
  std::size_t rr = 0;

  if (!open_loop) {
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      for (std::size_t d = 0; d < config_.depth && sending_allowed(t0); ++d) {
        send_one(c, t0, t0);
      }
      if (!flush(c)) return std::move(result_);
    }
  }

  std::uint64_t drain_deadline = 0;
  bool window_open = false;
  bool window_closed = !timed;
  const auto close_window = [&] {
    if (window_open && !window_closed && config_.on_window_end) config_.on_window_end();
    window_closed = true;
  };
  epoll_event events[16];
  while (result_.ok) {
    std::uint64_t now = now_ns();
    if (timed && !window_open && now >= warm_end_) {
      window_open = true;
      if (config_.on_window_start) config_.on_window_start();
    }
    if (window_open && !window_closed && now >= measure_end_) close_window();
    if (open_loop) {
      bool sent = false;
      while (next_due <= now && sending_allowed(next_due)) {
        if (!send_one(rr, next_due, now)) break;
        sent = true;
        rr = (rr + 1) % conns_.size();
        next_due += static_cast<std::uint64_t>(arrivals.exponential(mean_gap_ns));
      }
      if (sent) {
        for (std::size_t c = 0; c < conns_.size(); ++c) {
          if (!conns_[c].out.empty() && !conns_[c].want_write && !flush(c)) break;
        }
      }
    }
    const bool done_sending = !sending_allowed(open_loop ? next_due : now);
    if (done_sending) {
      if (outstanding_ == 0) break;
      if (drain_deadline == 0) {
        drain_deadline = std::max(now, timed ? measure_end_ : now) +
                         static_cast<std::uint64_t>(kDrainS * 1e9);
      }
      if (now >= drain_deadline) break;
    }
    std::uint64_t wait_ns = 50'000'000;
    if (open_loop && !done_sending) wait_ns = next_due > now ? next_due - now : 0;
    if (done_sending) wait_ns = std::min<std::uint64_t>(wait_ns, drain_deadline - now);
    const timespec timeout{.tv_sec = static_cast<time_t>(wait_ns / 1'000'000'000),
                           .tv_nsec = static_cast<long>(wait_ns % 1'000'000'000)};
    const int n = ::epoll_pwait2(epoll_fd_, events, 16, &timeout, nullptr);
    if (n < 0 && errno != EINTR) {
      result_.ok = false;
      result_.error = std::string("epoll: ") + std::strerror(errno);
      break;
    }
    for (int i = 0; i < n && result_.ok; ++i) {
      const auto c = static_cast<std::size_t>(events[i].data.u64);
      if ((events[i].events & EPOLLOUT) != 0 && !flush(c)) break;
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && !read_conn(c)) break;
      if (!open_loop) {
        now = now_ns();
        while (conns_[c].outstanding < config_.depth && sending_allowed(now)) {
          if (!send_one(c, now, now)) break;
        }
        if (!conns_[c].out.empty() && !conns_[c].want_write && !flush(c)) break;
      }
    }
  }

  close_window();
  // Whatever is still outstanding never got its answer in time.
  for (const Pending& p : ring_) {
    if (p.id != 0 && p.measured) ++result_.failed;
  }
  if (outstanding_ > 0 && result_.ok) {
    std::fprintf(stderr, "perfbench: %llu replies lost or late\n",
                 static_cast<unsigned long long>(outstanding_));
  }
  result_.window_s = timed ? config_.measure_s
                           : static_cast<double>(now_ns() - t0) / 1e9;
  return std::move(result_);
}

}  // namespace

LoadResult run_load(const LoadConfig& config, Traffic& traffic, std::uint64_t& next_id) {
  Generator generator(config, traffic, next_id);
  return generator.run();
}

}  // namespace mccls::perfbench
