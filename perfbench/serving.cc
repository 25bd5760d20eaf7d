#include "serving.h"

#include <cstdlib>
#include <sstream>

#include "bench.h"
#include "serve/http.h"

namespace perfbench {

namespace {

/// Value of `key` in the query string of `target`, or "".
std::string QueryValue(const std::string& target, const std::string& key) {
  const size_t query = target.find('?');
  if (query == std::string::npos) return "";
  size_t pos = query + 1;
  while (pos < target.size()) {
    size_t end = target.find('&', pos);
    if (end == std::string::npos) end = target.size();
    const size_t eq = target.find('=', pos);
    if (eq != std::string::npos && eq < end &&
        target.compare(pos, eq - pos, key) == 0) {
      return target.substr(eq + 1, end - eq - 1);
    }
    pos = end + 1;
  }
  return "";
}

}  // namespace

std::unique_ptr<Stack> Stack::Start(int64_t slots) {
  std::unique_ptr<Stack> stack(new Stack());
  stack->handle_ns_ = std::vector<std::atomic<int64_t>>(slots);
  stack->handle_cpu_ns_ = std::vector<std::atomic<int64_t>>(slots);
  serve::PlanServiceOptions service_options;
  service_options.metrics = &stack->metrics_;
  stack->service_ = std::make_unique<serve::PlanService>(service_options);
  serve::HttpServerOptions server_options;
  server_options.metrics = &stack->metrics_;
  Stack* raw = stack.get();
  auto server = serve::HttpServer::Start(
      server_options,
      [raw](const serve::HttpRequest& request) {
        return raw->Handle(request);
      });
  if (!server.ok()) return nullptr;
  stack->server_ = std::move(*server);
  return stack;
}

Stack::~Stack() {
  if (server_ != nullptr) server_->Shutdown();
}

serve::HttpResponse Stack::Handle(const serve::HttpRequest& request) {
  const int now_in = in_flight_.fetch_add(1) + 1;
  int peak = peak_.load();
  while (now_in > peak && !peak_.compare_exchange_weak(peak, now_in)) {
  }
  const int64_t cpu_start = ThreadCpuNs();
  const int64_t start = NowNs();
  serve::HttpResponse response = service_->Handle(request);
  const int64_t end = NowNs();
  const int64_t cpu = ThreadCpuNs() - cpu_start;
  in_flight_.fetch_sub(1);

  const std::string slot = QueryValue(request.target, "s");
  if (!slot.empty()) {
    const int64_t index = std::atoll(slot.c_str());
    if (index >= 0 && index < static_cast<int64_t>(handle_ns_.size())) {
      handle_ns_[index].store(end - start, std::memory_order_release);
      handle_cpu_ns_[index].store(cpu, std::memory_order_release);
    }
  }
  if (tracer().enabled()) {
    const std::string parent = QueryValue(request.target, "p");
    tracer().Add("serve.handle." + QueryValue(request.target, "c"), start, end,
                 parent.empty() ? -1 : std::atoi(parent.c_str()));
  }
  return response;
}

std::map<std::string, double> Stack::ScrapeMetrics() const {
  std::map<std::string, double> values;
  auto response =
      serve::HttpFetch("127.0.0.1", port(), "GET", "/metrics", "", 10000);
  if (!response.ok() || response->status != 200) return values;
  std::istringstream in(response->body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  return values;
}

double JsonNumberAt(const galvatron::JsonValue& root, const char* key,
                    const char* object) {
  const galvatron::JsonValue* inner =
      object == nullptr ? &root : galvatron::FindMember(root, object);
  if (inner == nullptr) return 0.0;
  const galvatron::JsonValue* value = galvatron::FindMember(*inner, key);
  return value == nullptr ? 0.0 : value->number;
}

Call Send(int port, const std::string& method, const std::string& path,
          const std::string& cls, int64_t slot, int parent,
          const std::string& body) {
  std::string target = path + "?c=" + cls + "&s=" + std::to_string(slot);
  if (parent >= 0) target += "&p=" + std::to_string(parent);
  Call call;
  call.sent_ns = NowNs();
  auto response =
      serve::HttpFetch("127.0.0.1", port, method, target, body, 30000);
  call.done_ns = NowNs();
  if (response.ok()) {
    call.status = response->status;
    call.body = std::move(response->body);
  }
  return call;
}

}  // namespace perfbench
