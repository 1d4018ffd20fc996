// The server stack `mccls_cli serve` runs, composed in-process so the load
// generator and the traced run share one process: kgcd booted from a data
// directory (WAL replay), verifyd resolving by-identity requests through a
// ResilientResolver over the kgcd directory, and one netd listener in front
// of each on 127.0.0.1. Every setting is serve's default except the verifyd
// worker count.
//
// With a Tracer attached, the public seams are wrapped from outside: each
// netd::FrameSink (dispatch -> reply, i.e. until the verify completion or the
// kgc handler replies), the svc::PkResolver the service calls, and the kgcd
// front end's Handler. Without one the stack is exactly serve's.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"
#include "kgc/kgcd.hpp"
#include "netd/front.hpp"
#include "netd/server.hpp"
#include "svc/resolver.hpp"
#include "svc/service.hpp"

namespace mccls::perfbench {

struct StackConfig {
  std::string data_dir;
  unsigned workers = 3;
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;  ///< not owned; must outlive the stack
};

class Stack {
 public:
  Stack(const math::Fq& master_key, StackConfig config);
  ~Stack();  ///< serve's shutdown order: listeners, kgcd front end, service, daemon

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Starts both listeners and waits until each accepts a connection.
  bool start();
  [[nodiscard]] const std::string& error() const { return error_; }

  [[nodiscard]] std::uint16_t verify_port() const { return verify_server_->port(); }
  [[nodiscard]] std::uint16_t kgc_port() const { return kgc_server_->port(); }
  [[nodiscard]] kgc::Kgcd& daemon() { return *daemon_; }
  [[nodiscard]] svc::VerifyService& service() { return *service_; }
  [[nodiscard]] const netd::NetServer& verify_server() const { return *verify_server_; }
  [[nodiscard]] const netd::NetServer& kgc_server() const { return *kgc_server_; }

 private:
  class TracedSink;
  class TracedResolver;

  StackConfig config_;
  std::string error_;
  std::unique_ptr<kgc::Kgcd> daemon_;
  std::unique_ptr<svc::ResilientResolver> resolver_;
  std::unique_ptr<TracedResolver> traced_resolver_;
  std::unique_ptr<svc::VerifyService> service_;
  std::unique_ptr<netd::VerifydFrontEnd> verify_front_;
  std::unique_ptr<netd::KgcdFrontEnd> kgc_front_;
  std::unique_ptr<TracedSink> verify_sink_;
  std::unique_ptr<TracedSink> kgc_sink_;
  std::unique_ptr<netd::NetServer> verify_server_;
  std::unique_ptr<netd::NetServer> kgc_server_;
};

/// Request id of an svc or kgc wire request, read from its fixed header
/// offset without decoding the frame (0 when too short).
std::uint64_t peek_svc_request_id(std::span<const std::uint8_t> frame);
std::uint64_t peek_kgc_request_id(std::span<const std::uint8_t> frame);

}  // namespace mccls::perfbench
