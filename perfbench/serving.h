#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

/// The in-process serving stack the serve_hot and calibrate_loop workloads
/// drive: serve::PlanService behind serve::HttpServer on loopback, with the
/// benchmark's handler wrapper around PlanService::Handle, which records
/// each request's handle wall and CPU time (by the slot the client names in
/// the query string, which the service ignores) and, in the traced run, a
/// serve.handle.<class> span under the client's request span.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/handlers.h"
#include "serve/http_server.h"
#include "serve/metrics.h"
#include "util/json.h"

namespace perfbench {

namespace serve = galvatron::serve;

class Stack {
 public:
  /// Starts a default-configured service and server. `slots` bounds the
  /// request slots whose handle time is kept. Returns null on failure.
  static std::unique_ptr<Stack> Start(int64_t slots);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  int port() const { return server_->port(); }
  /// Wall and CPU time inside PlanService::Handle of the request that named
  /// `slot`, ns (0 if none did).
  int64_t handle_ns(int64_t slot) const {
    return handle_ns_[slot].load(std::memory_order_acquire);
  }
  int64_t handle_cpu_ns(int64_t slot) const {
    return handle_cpu_ns_[slot].load(std::memory_order_acquire);
  }
  /// Most requests inside PlanService::Handle at once.
  int in_flight_peak() const { return peak_.load(); }
  /// Counters from GET /metrics (name -> value, unlabelled series only).
  std::map<std::string, double> ScrapeMetrics() const;

 private:
  Stack() = default;
  serve::HttpResponse Handle(const serve::HttpRequest& request);

  serve::ServeMetrics metrics_;
  std::unique_ptr<serve::PlanService> service_;
  std::vector<std::atomic<int64_t>> handle_ns_;
  std::vector<std::atomic<int64_t>> handle_cpu_ns_;
  std::atomic<int> in_flight_{0};
  std::atomic<int> peak_{0};
  // Declared last: destroyed first, draining requests that use the above.
  std::unique_ptr<serve::HttpServer> server_;
};

/// The number at `key` of a JSON object (of `object` inside it when given),
/// or 0 when absent.
double JsonNumberAt(const galvatron::JsonValue& root, const char* key,
                    const char* object = nullptr);

/// One client request's outcome.
struct Call {
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  int status = 0;  // HTTP status; 0 when the request never completed
  std::string body;
};

/// Sends one request with Connection: close. `cls` and `slot` ride in the
/// query string for the handler wrapper; `parent` is the client span the
/// server's handle span nests under (-1 when untraced).
Call Send(int port, const std::string& method, const std::string& path,
          const std::string& cls, int64_t slot, int parent,
          const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
