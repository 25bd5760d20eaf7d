/// galvatron_serve — the plan-serving daemon: an HTTP/1.1 + JSON service
/// that answers hybrid-parallelism planning requests from a process-lifetime
/// cache hierarchy (response-level PlanCache above per-signature
/// SharedCostCaches).
///
///   galvatron_serve --port 8080 --threads 4
///   curl -s localhost:8080/healthz
///   curl -s -d @request.json localhost:8080/v1/plan
///   curl -s localhost:8080/metrics       # Prometheus text exposition
///
/// See docs/serving.md for the wire format. SIGINT/SIGTERM drain in-flight
/// requests before exiting.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "serve/handlers.h"
#include "serve/http_server.h"
#include "serve/metrics.h"
#include "util/string_util.h"

namespace galvatron {
namespace serve {
namespace {

struct ServeArgs {
  std::string host = "127.0.0.1";
  int port = 8080;
  int threads = 4;
  int max_in_flight = 64;
  int plan_cache_entries = 128;
  int context_cache_entries = 8;
  int max_body_kb = 8192;
  int io_timeout_ms = 5000;
  double deadline_ms = 0.0;  // default per-request deadline; 0 = unlimited
  int async_workers = 2;
  int async_jobs = 128;
  std::string plan_cache_file;  // persistent journal; empty = in-memory only
  int plan_cache_journal_max_kb = 0;  // size-triggered compaction; 0 = off
  int calibration_samples = 65536;    // /v1/measure observations retained
  bool help = false;
};

void PrintUsage() {
  std::printf(R"(galvatron_serve: HTTP/JSON planning service

  --host ADDR              bind address (default 127.0.0.1)
  --port N                 port; 0 asks the kernel for an ephemeral one
                           (default 8080)
  --threads N              worker threads (default 4)
  --max-in-flight N        admission limit; excess requests get 429
                           (default 64)
  --plan-cache-entries N   response-level LRU entries, 0 disables
                           (default 128)
  --context-cache-entries N  warm (model, cluster) contexts, each holding a
                           shared cost cache (default 8)
  --max-body-kb N          request body limit; larger bodies get 413
                           (default 8192)
  --io-timeout-ms N        per-connection socket timeout; stalled clients
                           get 408 (default 5000)
  --deadline-ms X          default per-request search deadline; an expired
                           sweep gets 504 (default 0 = unlimited)
  --plan-cache-file PATH   persistent plan-cache journal, replayed on
                           startup and compacted on drain (default off)
  --plan-cache-journal-max-kb N  compact the journal whenever it grows past
                           N KiB (default 0 = only compact on drain)
  --calibration-samples N  traced /v1/measure comm observations retained for
                           POST /v1/calibrate; 0 disables capture
                           (default 65536)
  --async-workers N        threads executing "async": true plan requests
                           (default 2)
  --async-jobs N           async jobs retained for polling (default 128)

Endpoints: POST /v1/plan, GET /v1/plan/<id>, POST /v1/measure,
POST /v1/calibrate, GET /healthz, GET /metrics.
)");
}

Result<ServeArgs> ParseArgs(int argc, char** argv) {
  ServeArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(flag + " needs a value");
      }
      return std::string(argv[++i]);
    };
    auto next_int = [&](int min_value,
                        int max_value = std::numeric_limits<int>::max())
        -> Result<int> {
      GALVATRON_ASSIGN_OR_RETURN(std::string v, next());
      return ParseIntFlag(flag, v, min_value, max_value);
    };
    if (flag == "--host") {
      GALVATRON_ASSIGN_OR_RETURN(args.host, next());
    } else if (flag == "--port") {
      GALVATRON_ASSIGN_OR_RETURN(args.port, next_int(0, 65535));
    } else if (flag == "--threads") {
      GALVATRON_ASSIGN_OR_RETURN(args.threads, next_int(1));
    } else if (flag == "--max-in-flight") {
      GALVATRON_ASSIGN_OR_RETURN(args.max_in_flight, next_int(1));
    } else if (flag == "--plan-cache-entries") {
      GALVATRON_ASSIGN_OR_RETURN(args.plan_cache_entries, next_int(0));
    } else if (flag == "--context-cache-entries") {
      GALVATRON_ASSIGN_OR_RETURN(args.context_cache_entries, next_int(1));
    } else if (flag == "--max-body-kb") {
      GALVATRON_ASSIGN_OR_RETURN(args.max_body_kb, next_int(1));
    } else if (flag == "--io-timeout-ms") {
      GALVATRON_ASSIGN_OR_RETURN(args.io_timeout_ms, next_int(100));
    } else if (flag == "--plan-cache-file") {
      GALVATRON_ASSIGN_OR_RETURN(args.plan_cache_file, next());
    } else if (flag == "--plan-cache-journal-max-kb") {
      GALVATRON_ASSIGN_OR_RETURN(args.plan_cache_journal_max_kb, next_int(0));
    } else if (flag == "--calibration-samples") {
      GALVATRON_ASSIGN_OR_RETURN(args.calibration_samples, next_int(0));
    } else if (flag == "--async-workers") {
      GALVATRON_ASSIGN_OR_RETURN(args.async_workers, next_int(1));
    } else if (flag == "--async-jobs") {
      GALVATRON_ASSIGN_OR_RETURN(args.async_jobs, next_int(1));
    } else if (flag == "--deadline-ms") {
      GALVATRON_ASSIGN_OR_RETURN(std::string v, next());
      GALVATRON_ASSIGN_OR_RETURN(
          args.deadline_ms,
          ParseDoubleFlag(flag, v, 0.0, std::numeric_limits<double>::max()));
    } else if (flag == "--help" || flag == "-h") {
      args.help = true;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  return args;
}

// Self-pipe: the signal handler only writes one byte; the main thread
// blocks on the read end and runs the (non-async-signal-safe) drain there.
int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

Result<int> RunServe(const ServeArgs& args) {
  if (::pipe(g_signal_pipe) != 0) {
    return Status::Internal(
        std::string("pipe failed: ") + std::strerror(errno));
  }
  struct sigaction action{};
  action.sa_handler = OnSignal;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  ServeMetrics metrics;
  PlanServiceOptions service_options;
  service_options.plan_cache_entries =
      static_cast<size_t>(args.plan_cache_entries);
  service_options.context_cache_entries =
      static_cast<size_t>(args.context_cache_entries);
  service_options.default_deadline_ms = args.deadline_ms;
  service_options.plan_cache_journal = args.plan_cache_file;
  service_options.plan_cache_journal_max_bytes =
      static_cast<int64_t>(args.plan_cache_journal_max_kb) * 1024;
  service_options.calibration_sample_capacity =
      static_cast<size_t>(args.calibration_samples);
  service_options.async_workers = args.async_workers;
  service_options.async_jobs = static_cast<size_t>(args.async_jobs);
  service_options.metrics = &metrics;
  PlanService service(service_options);

  HttpServerOptions server_options;
  server_options.bind_address = args.host;
  server_options.port = args.port;
  server_options.num_threads = args.threads;
  server_options.max_in_flight = args.max_in_flight;
  server_options.max_body_bytes = static_cast<size_t>(args.max_body_kb) * 1024;
  server_options.io_timeout_ms = args.io_timeout_ms;
  server_options.metrics = &metrics;
  GALVATRON_ASSIGN_OR_RETURN(
      std::unique_ptr<HttpServer> server,
      HttpServer::Start(server_options, [&service](const HttpRequest& request) {
        return service.Handle(request);
      }));

  // The parent (tests, scripts) parses this line for the resolved port.
  std::printf("galvatron_serve listening on %s:%d\n", args.host.c_str(),
              server->port());
  std::fflush(stdout);

  char byte;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("galvatron_serve draining...\n");
  std::fflush(stdout);
  server->Shutdown();  // stops accepting, waits for in-flight requests
  std::printf("galvatron_serve stopped\n");
  return 0;
}

}  // namespace
}  // namespace serve
}  // namespace galvatron

int main(int argc, char** argv) {
  auto args = galvatron::serve::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    galvatron::serve::PrintUsage();
    return 1;
  }
  if (args->help) {
    galvatron::serve::PrintUsage();
    return 0;
  }
  auto exit_code = galvatron::serve::RunServe(*args);
  if (!exit_code.ok()) {
    std::fprintf(stderr, "%s\n", exit_code.status().ToString().c_str());
    return 1;
  }
  return *exit_code;
}
