#include "stack.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mccls::perfbench {

namespace {

std::uint64_t read_be64(std::span<const std::uint8_t> bytes, std::size_t offset) {
  if (bytes.size() < offset + 8) return 0;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | bytes[offset + i];
  return v;
}

/// One blocking connect to 127.0.0.1:port — proof the listener accepts.
/// Closed with a reset, so the hundreds of boots a set-up measurement makes
/// leave no sockets in TIME_WAIT.
bool probe(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  const linger reset{.l_onoff = 1, .l_linger = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
  ::close(fd);
  return ok;
}

}  // namespace

// svc request: version:u8 kind:u8 request_id:u64 ...
std::uint64_t peek_svc_request_id(std::span<const std::uint8_t> frame) {
  return read_be64(frame, 2);
}

// kgc request: version:u8 kind:u8 op:u8 request_id:u64 ...
std::uint64_t peek_kgc_request_id(std::span<const std::uint8_t> frame) {
  return read_be64(frame, 3);
}

/// FrameSink wrapper: a span from accepted dispatch to reply. The reply
/// closure captures only the tracer, which outlives every stack, because
/// service completions may still run after this object is gone.
class Stack::TracedSink final : public netd::FrameSink {
 public:
  TracedSink(netd::FrameSink& inner, Tracer& tracer, SpanName name)
      : inner_(inner), tracer_(tracer), name_(name) {}

  bool try_dispatch(crypto::Bytes& frame, const Reply& reply) override {
    const bool kgc = name_ == SpanName::kKgcSink;
    const std::uint64_t id = kgc ? peek_kgc_request_id(frame) : peek_svc_request_id(frame);
    bool accepted = false;
    if (!tracer_.sampled(id)) {
      accepted = inner_.try_dispatch(frame, reply);
    } else {
      Tracer* tracer = &tracer_;
      const Span open{.trace = id,
                      .start_ns = now_ns(),
                      .name = name_,
                      .attr = static_cast<std::uint8_t>(kgc && frame.size() > 2 ? frame[2] : 0)};
      accepted = inner_.try_dispatch(frame, [reply, tracer, open](crypto::Bytes bytes) {
        Span done = open;
        done.end_ns = now_ns();
        tracer->record(done);
        reply(std::move(bytes));
      });
    }
    if (!accepted) tracer_.count_refusal();
    return accepted;
  }

 private:
  netd::FrameSink& inner_;
  Tracer& tracer_;
  SpanName name_;
};

/// svc::PkResolver wrapper: a span per resolve() the service makes. The seam
/// carries an identity but no request id, so these spans are unlinked.
class Stack::TracedResolver final : public svc::PkResolver {
 public:
  TracedResolver(svc::PkResolver& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  svc::ResolveResult resolve(std::string_view id) override {
    if (!tracer_.sampled(0)) return inner_.resolve(id);
    const std::uint64_t start = now_ns();
    svc::ResolveResult result = inner_.resolve(id);
    tracer_.record(Span{.trace = 0,
                        .start_ns = start,
                        .end_ns = now_ns(),
                        .name = SpanName::kResolve,
                        .attr = static_cast<std::uint8_t>(result.outcome)});
    return result;
  }

 private:
  svc::PkResolver& inner_;
  Tracer& tracer_;
};

Stack::Stack(const math::Fq& master_key, StackConfig config) : config_(std::move(config)) {
  kgc::KgcdConfig kgcd_config;
  kgcd_config.data_dir = config_.data_dir;
  daemon_ = std::make_unique<kgc::Kgcd>(master_key, kgcd_config);

  resolver_ = std::make_unique<svc::ResilientResolver>(&daemon_->directory());
  resolver_->set_metrics(&daemon_->metrics());
  svc::PkResolver* service_resolver = resolver_.get();
  if (config_.tracer != nullptr) {
    traced_resolver_ = std::make_unique<TracedResolver>(*resolver_, *config_.tracer);
    service_resolver = traced_resolver_.get();
  }
  service_ = std::make_unique<svc::VerifyService>(
      daemon_->params(), svc::ServiceConfig{.workers = config_.workers,
                                            .seed = config_.seed ^ 0x5E12EULL,
                                            .resolver = service_resolver});
  // The service re-points a ResilientResolver it is handed directly at its
  // own metrics; do the same when a wrapper hides the type from it.
  if (traced_resolver_) resolver_->set_metrics(&service_->metrics());

  verify_front_ = std::make_unique<netd::VerifydFrontEnd>(*service_);
  netd::FrameSink* verify_sink = verify_front_.get();
  netd::FrameSink* kgc_sink = nullptr;
  if (config_.tracer == nullptr) {
    kgc_front_ = std::make_unique<netd::KgcdFrontEnd>(*daemon_);
    kgc_sink = kgc_front_.get();
  } else {
    Tracer* tracer = config_.tracer;
    kgc::Kgcd* daemon = daemon_.get();
    kgc_front_ = std::make_unique<netd::KgcdFrontEnd>(
        netd::KgcdFrontEnd::Handler([daemon, tracer](std::span<const std::uint8_t> frame) {
          const std::uint64_t id = peek_kgc_request_id(frame);
          if (!tracer->sampled(id)) return daemon->handle_frame(frame);
          const std::uint64_t start = now_ns();
          crypto::Bytes out = daemon->handle_frame(frame);
          tracer->record(Span{.trace = id,
                              .start_ns = start,
                              .end_ns = now_ns(),
                              .name = SpanName::kKgcHandler,
                              .attr = static_cast<std::uint8_t>(frame.size() > 2 ? frame[2] : 0)});
          return out;
        }));
    verify_sink_ = std::make_unique<TracedSink>(*verify_front_, *tracer, SpanName::kSvcSink);
    kgc_sink_ = std::make_unique<TracedSink>(*kgc_front_, *tracer, SpanName::kKgcSink);
    verify_sink = verify_sink_.get();
    kgc_sink = kgc_sink_.get();
  }
  verify_server_ = std::make_unique<netd::NetServer>(netd::NetdConfig{}, verify_sink);
  kgc_server_ = std::make_unique<netd::NetServer>(netd::NetdConfig{}, kgc_sink);
}

Stack::~Stack() {
  verify_server_->stop();
  kgc_server_->stop();
  kgc_front_->shutdown();
}

bool Stack::start() {
  if (!verify_server_->start()) {
    error_ = "verifyd: " + verify_server_->error();
    return false;
  }
  if (!kgc_server_->start()) {
    error_ = "kgcd: " + kgc_server_->error();
    return false;
  }
  if (!probe(verify_server_->port()) || !probe(kgc_server_->port())) {
    error_ = "listener does not accept";
    return false;
  }
  return true;
}

}  // namespace mccls::perfbench
