/// serve_hot: open-loop POST /v1/plan over loopback, one connection per
/// request, against a service whose cold planning all happened in set-up.
/// The traffic is exact repeats (plan-cache hits) plus memory-budget
/// variants of primed (model, cluster) pairs (warm starts that replay the
/// pair's DP frontiers). Serving, the JSON codec and the warm search path
/// do the work; cold search does none.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/galvatron.h"
#include "api/plan_io.h"
#include "bench.h"
#include "serving.h"
#include "util/json.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using galvatron::ClusterSpec;
using galvatron::Galvatron;
using galvatron::JsonValue;
using galvatron::ModelId;

struct Pair {
  ModelId model;
  int gpus;
};

/// Hit inputs are the warm pairs plus three cold-only pairs, each at
/// kPrimeBudget plus a seeded offset of at most 50 MB, all planned cold in
/// set-up: six inputs, six warm contexts (the service keeps eight), so no
/// warm context is ever evicted. Budget variants below a warm pair's primed
/// budget warm-start from its frontiers.
const Pair kWarmPairs[] = {{ModelId::kBertHuge32, 8},
                           {ModelId::kT5Large48, 8},
                           {ModelId::kT5Large32, 8}};
const Pair kColdOnlyPairs[] = {{ModelId::kBertHuge48, 8},
                               {ModelId::kBertHuge32, 16},
                               {ModelId::kT5Large32, 16}};
constexpr int64_t kPrimeBudget = 16 * galvatron::kGB;

enum Cls : int8_t { kHit = 0, kWarm = 1 };
const char* const kClsName[] = {"hit", "warm"};
/// Every block of ten requests holds eight hits and two warm starts, in a
/// seeded order: the class counts are fixed, not drawn per request.
constexpr int kBlock = 10;
constexpr int kWarmPerBlock = 2;

/// The ladder, both halves fixed: coarse rates doubling from kCoarseStart
/// (stopping after two consecutive misses), then fine rates growing by
/// kFineFactor from the highest coarse rate that met the SLO up to the
/// coarse rate above it. Every step offers its rate for kStepSeconds.
/// Latency percentiles come from one longer step at kFixedRate, an eighth of
/// the capacity measured on a quiet 4-core host and a third of it while the
/// host's other tenants took a quarter of the CPU time (steal).
constexpr double kCoarseStart = 500;
constexpr double kCoarseTop = 16000;
constexpr double kFineFactor = 1.05;
constexpr double kStepSeconds = 0.5;
constexpr double kFixedRate = 1000;
constexpr int kSenders = 32;
/// During the fixed-rate step, every this-many-th warm request is checked
/// against the library plan and simulated; its seeded budget makes the
/// plan-quality metric depend on the seed.
constexpr int64_t kWarmSampleEvery = 100;

SloLimits Limits() {
  SloLimits limits;
  limits.p99_ms = {{"hit", 25.0}, {"warm", 50.0}};
  limits.max_backlog_share = 0.05;
  limits.max_lag_ms = 25.0;
  return limits;
}

ClusterSpec MakeCluster(int gpus, int64_t budget) {
  return gpus == 8 ? galvatron::MakeTitanNode8(budget)
                   : galvatron::MakeTitanCluster16(budget);
}

std::string PlanBody(const Pair& pair, int64_t budget) {
  return "{\"model\": \"" +
         std::string(galvatron::ModelIdToString(pair.model)) +
         "\", \"cluster\": " +
         galvatron::ClusterSpecToJson(MakeCluster(pair.gpus, budget)) + "}";
}

/// Canonical form of the "plan" member of a /v1/plan response, or "" if the
/// response does not carry a plan that ParsePlanJson accepts.
std::string ServedPlan(const std::string& body, JsonValue* root_out = nullptr) {
  galvatron::Result<JsonValue> root = galvatron::ParseJson(body);
  if (!root.ok()) return "";
  const JsonValue* plan = galvatron::FindMember(*root, "plan");
  if (plan == nullptr) return "";
  const std::string json = galvatron::WriteJson(*plan);
  if (!galvatron::ParsePlanJson(json).ok()) return "";
  if (root_out != nullptr) *root_out = std::move(*root);
  return json;
}

std::string CanonicalPlan(const galvatron::TrainingPlan& plan) {
  return galvatron::WriteJson(
      *galvatron::ParseJson(galvatron::PlanToJson(plan)));
}

struct Input {
  Pair pair;
  bool warm = false;
  int64_t budget = 0;
  std::string body;
  std::string hit_body;  // the byte-exact replay every hit must return
};

struct Request {
  int64_t due_ns = 0;
  Cls cls = kHit;
  int input = 0;       // index into inputs (a warm pair's for warm requests)
  int64_t budget = 0;  // warm only
  /// Warm requests checked against the library and simulated afterwards.
  bool sample = false;
};

struct Outcome {
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
};

/// Warm-response counters, summed over a step.
struct WarmStats {
  double search_ms = 0, cost_hits = 0, cost_misses = 0, frontier_hits = 0,
         frontier_misses = 0;
  int64_t n = 0;
};

struct StepResult {
  LadderStep step;
  std::vector<double> latency_ms[2];
  std::vector<double> handle_ms[2];
  std::vector<double> handle_cpu_ms[2];
  std::vector<double> wire_ms[2];
  WarmStats warm;
  /// Process CPU time during the step minus the generator threads' own.
  int64_t server_cpu_ns = 0;
};

/// The load generator: an open loop over a preallocated request buffer.
class LoadGen {
 public:
  LoadGen(const std::vector<Input>* inputs, uint64_t seed, int64_t capacity)
      : inputs_(inputs), rng_(seed) {
    requests_.resize(capacity);
    outcomes_.resize(capacity);
    for (size_t i = 0; i < inputs->size(); ++i) {
      if ((*inputs)[i].warm) warm_inputs_.push_back(static_cast<int>(i));
    }
    std::uniform_int_distribution<int64_t> offset(1, 32000000);
    warm_offset_ = offset(rng_);
  }

  void set_stack(Stack* stack) { stack_ = stack; }
  int64_t warm_sent() const { return warm_sent_; }
  int64_t hit_sent() const { return hit_sent_; }
  struct WarmSample {
    Request request;
    std::string plan;  // canonical served plan
    double estimated_s = 0;
  };
  const std::vector<WarmSample>& warm_samples() const { return warm_samples_; }
  const std::vector<std::string>& errors() const { return errors_; }

  /// Offers `rate` req/s for `seconds`, then waits for every request.
  /// `sample` marks warm requests for the post-run plan checks.
  StepResult Step(double rate, double seconds, bool sample = false) {
    StepResult result;
    const int64_t count = static_cast<int64_t>(rate * seconds);
    if (next_slot_ + count > static_cast<int64_t>(requests_.size())) {
      errors_.push_back("request buffer exhausted");
      return result;
    }
    const int64_t first = next_slot_;
    next_slot_ += count;
    // The first request is due 20 ms out, after the senders have started.
    const int64_t start = NowNs() + 20000000;
    const double interval_ns = 1e9 / rate;
    for (int64_t i = 0; i < count; ++i) {
      Request& r = requests_[first + i];
      r.due_ns = start + static_cast<int64_t>(i * interval_ns);
      r.cls = NextClass();
      if (r.cls == kHit) {
        r.input = static_cast<int>(hit_sent_++ % inputs_->size());
      } else {
        r.input = warm_inputs_[warm_sent_ % warm_inputs_.size()];
        // Distinct budgets below the primed one: every warm request is a
        // new plan-cache key on a primed context.
        r.budget = (*inputs_)[r.input].budget - warm_offset_ -
                   warm_sent_ * 65537;
        r.sample = sample && warm_sent_ % kWarmSampleEvery == 0;
        ++warm_sent_;
      }
    }
    const int64_t window_end = start + static_cast<int64_t>(seconds * 1e9);
    const int64_t now = NowNs();
    const int step_span = tracer().Add(
        galvatron::StrFormat("loadgen.step.%g", rate), now, now);

    std::atomic<int64_t> next{first};
    std::vector<WarmStats> warm(kSenders);
    std::vector<int64_t> sender_cpu_ns(kSenders, 0);
    std::vector<std::thread> senders;
    const int64_t cpu0 = ProcessCpuNs();
    for (int t = 0; t < kSenders; ++t) {
      senders.emplace_back([&, t] {
        for (;;) {
          const int64_t i = next.fetch_add(1);
          if (i >= first + count) break;
          SendOne(i, step_span, &warm[t]);
        }
        sender_cpu_ns[t] = ThreadCpuNs();
      });
    }
    for (std::thread& sender : senders) sender.join();
    result.server_cpu_ns = ProcessCpuNs() - cpu0;
    for (int64_t ns : sender_cpu_ns) result.server_cpu_ns -= ns;
    tracer().Close(step_span);

    LadderStep& step = result.step;
    step.rate = rate;
    step.attempted = count;
    std::vector<double> lag_ms;
    for (int64_t i = first; i < first + count; ++i) {
      const Request& r = requests_[i];
      const Outcome& o = outcomes_[i];
      if (!o.ok) ++step.failed;
      lag_ms.push_back(NsToMs(o.sent_ns - r.due_ns));
      const double latency = NsToMs(o.done_ns - r.due_ns);
      result.latency_ms[r.cls].push_back(latency);
      const double handle = NsToMs(stack_->handle_ns(i));
      result.handle_ms[r.cls].push_back(handle);
      result.handle_cpu_ms[r.cls].push_back(NsToMs(stack_->handle_cpu_ns(i)));
      result.wire_ms[r.cls].push_back(NsToMs(o.done_ns - o.sent_ns) - handle);
      if (r.due_ns <= window_end && o.done_ns > window_end) {
        ++step.backlog_at_end;
      }
    }
    for (int c : {kHit, kWarm}) {
      step.p99_ms[kClsName[c]] = Percentile(result.latency_ms[c], 0.99);
    }
    step.lag_p99_ms = Percentile(lag_ms, 0.99);
    for (const WarmStats& w : warm) {
      result.warm.search_ms += w.search_ms;
      result.warm.cost_hits += w.cost_hits;
      result.warm.cost_misses += w.cost_misses;
      result.warm.frontier_hits += w.frontier_hits;
      result.warm.frontier_misses += w.frontier_misses;
      result.warm.n += w.n;
    }
    return result;
  }

 private:
  Cls NextClass() {
    if (block_pos_ == 0) {
      for (int k = 0; k < kBlock; ++k) {
        block_[k] = k < kWarmPerBlock ? kWarm : kHit;
      }
      std::shuffle(block_, block_ + kBlock, rng_);
    }
    const Cls cls = block_[block_pos_];
    block_pos_ = (block_pos_ + 1) % kBlock;
    return cls;
  }

  void SendOne(int64_t i, int step_span, WarmStats* warm) {
    const Request& r = requests_[i];
    std::string warm_body;
    if (r.cls == kWarm) {
      warm_body = PlanBody((*inputs_)[r.input].pair, r.budget);
    }
    const std::string& body =
        r.cls == kHit ? (*inputs_)[r.input].body : warm_body;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(r.due_ns)));
    const int span = tracer().Add(std::string("client.") + kClsName[r.cls],
                                  r.due_ns, r.due_ns, step_span);
    Call call =
        Send(stack_->port(), "POST", "/v1/plan", kClsName[r.cls], i, span,
             body);
    tracer().Close(span);
    Outcome& o = outcomes_[i];
    o.sent_ns = call.sent_ns;
    o.done_ns = call.done_ns;
    if (call.status != 200) {
      RecordError(galvatron::StrFormat("%s request answered %d",
                                       kClsName[r.cls], call.status));
      return;
    }
    if (r.cls == kHit) {
      o.ok = call.body == (*inputs_)[r.input].hit_body;
      if (!o.ok) RecordError("hit reply differs from the cached answer");
      return;
    }
    JsonValue root;
    const std::string plan = ServedPlan(call.body, &root);
    const JsonValue* hit = galvatron::FindMember(root, "plan_cache_hit");
    o.ok = !plan.empty() && hit != nullptr && !hit->boolean;
    if (!o.ok) {
      RecordError("warm reply is not a fresh parseable plan");
      return;
    }
    ++warm->n;
    auto stat = [&](const char* key) {
      return JsonNumberAt(root, key, "search_stats");
    };
    warm->search_ms += 1e3 * stat("search_seconds");
    warm->cost_hits += stat("cost_cache_hits");
    warm->cost_misses += stat("cost_cache_misses");
    warm->frontier_hits += stat("dp_frontier_hits");
    warm->frontier_misses += stat("dp_frontier_misses");
    std::lock_guard<std::mutex> lock(mu_);
    if (r.sample) {
      warm_samples_.push_back(
          {r, plan, JsonNumberAt(root, "iteration_seconds", "estimated")});
    }
  }

  void RecordError(const std::string& error) {
    std::lock_guard<std::mutex> lock(mu_);
    if (errors_.size() < 20) errors_.push_back(error);
  }

  const std::vector<Input>* inputs_;
  std::vector<int> warm_inputs_;
  Stack* stack_ = nullptr;
  std::mt19937_64 rng_;
  int64_t warm_offset_ = 0;
  std::vector<Request> requests_;
  std::vector<Outcome> outcomes_;
  int64_t next_slot_ = 0;
  int64_t hit_sent_ = 0;
  int64_t warm_sent_ = 0;
  Cls block_[kBlock] = {};
  int block_pos_ = 0;
  std::mutex mu_;
  std::vector<std::string> errors_;
  std::vector<WarmSample> warm_samples_;
};

/// Upper bound of requests one run can offer.
int64_t Capacity(double seconds) {
  double coarse = 0, fine = 0;
  for (double passed = kCoarseStart; passed <= kCoarseTop; passed *= 2) {
    coarse += passed * kStepSeconds;
    double steps = 0;
    for (double rate = passed * kFineFactor;
         rate < std::min(2 * passed, kCoarseTop); rate *= kFineFactor) {
      steps += std::round(rate) * kStepSeconds;
    }
    fine = std::max(fine, steps);
  }
  return static_cast<int64_t>(kFixedRate * seconds + coarse + fine) + 1024;
}

}  // namespace

void RunServeHot(const Args& args, Report* report) {
  std::mt19937_64 rng(args.seed);
  // Generator inputs: the hit bodies and the request buffers. Their RSS is
  // measured so that mem.peak_rss_mb counts only the program.
  const int64_t rss_before = CurrentRssBytes();
  std::uniform_int_distribution<int64_t> jitter(-50, 50);
  std::vector<Input> inputs;
  for (const Pair& pair : kWarmPairs) inputs.push_back({pair, true, 0, "", ""});
  for (const Pair& pair : kColdOnlyPairs) {
    inputs.push_back({pair, false, 0, "", ""});
  }
  std::shuffle(inputs.begin(), inputs.end(), rng);
  for (Input& input : inputs) {
    input.budget = kPrimeBudget + jitter(rng) * 1000000;
    input.body = PlanBody(input.pair, input.budget);
  }
  const int64_t capacity = Capacity(args.seconds);
  LoadGen gen(&inputs, rng(), capacity);
  report->generator_rss_bytes =
      std::max<int64_t>(0, CurrentRssBytes() - rss_before);

  // Set-up, five times (the last stack serves the run): start the service
  // and server, plan every input cold, and fetch each one's cached answer.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s, build_ms, prime_ms;
  for (int rep = 0; rep < 5; ++rep) {
    stack.reset();
    const int64_t t0 = NowNs();
    stack = Stack::Start(capacity);
    if (stack == nullptr) {
      report->Check(false, "server failed to start");
      return;
    }
    const int64_t t1 = NowNs();
    for (Input& input : inputs) {
      const Call cold =
          Send(stack->port(), "POST", "/v1/plan", "prime", -1, -1, input.body);
      const Call hit =
          Send(stack->port(), "POST", "/v1/plan", "prime", -1, -1, input.body);
      report->Check(cold.status == 200 && hit.status == 200,
                    "priming request failed");
      report->Check(ServedPlan(cold.body) == ServedPlan(hit.body) &&
                        !ServedPlan(hit.body).empty(),
                    "cold and hit answers differ");
      report->Check(hit.body.find("\"plan_cache_hit\": true") !=
                        std::string::npos,
                    "repeat was not a plan-cache hit");
      input.hit_body = hit.body;
    }
    const int64_t t2 = NowNs();
    setup_s.push_back((t2 - t0) / 1e9);
    build_ms.push_back(NsToMs(t1 - t0));
    prime_ms.push_back(NsToMs(t2 - t1));
  }
  report->E2e("setup_s", MedianSeconds(setup_s), "s");
  gen.set_stack(stack.get());

  const std::map<std::string, double> before = stack->ScrapeMetrics();
  // The traced run offers the fixed rate twice, with spans off and on; the
  // server CPU per request of the two gives the tracing overhead.
  StepResult untraced;
  if (args.trace) {
    untraced = gen.Step(kFixedRate, 0.2 * args.seconds, true);
    report->attempted += untraced.step.attempted;
    report->failed += untraced.step.failed;
    tracer().Enable(true);
  }
  const double fixed_seconds = (args.trace ? 0.2 : 0.4) * args.seconds;
  const int64_t phase_start = NowNs();
  StepResult fixed = gen.Step(kFixedRate, fixed_seconds, true);
  report->attempted += fixed.step.attempted;
  report->failed += fixed.step.failed;

  std::vector<LadderStep> steps;
  std::string ladder = "[";
  auto run_step = [&](double rate) {
    StepResult result = gen.Step(std::round(rate), kStepSeconds);
    steps.push_back(result.step);
    report->attempted += result.step.attempted;
    report->failed += result.step.failed;
    const std::string why = SloViolation(result.step, Limits());
    JsonObject entry;
    entry.Num("rate", result.step.rate)
        .Int("attempted", result.step.attempted)
        .Int("succeeded", result.step.attempted - result.step.failed)
        .Int("failed", result.step.failed)
        .Num("hit_p99_ms", result.step.p99_ms["hit"])
        .Num("warm_p99_ms", result.step.p99_ms["warm"])
        .Int("backlog_at_end", result.step.backlog_at_end)
        .Num("lag_p99_ms", result.step.lag_p99_ms)
        .Str("slo", why.empty() ? "met" : why);
    if (ladder.size() > 1) ladder += ", ";
    ladder += entry.str();
    return why.empty();
  };
  double passed = 0;
  int misses_in_a_row = 0;
  for (double rate = kCoarseStart; rate <= kCoarseTop && misses_in_a_row < 2;
       rate *= 2) {
    if (run_step(rate)) {
      passed = rate;
      misses_in_a_row = 0;
    } else {
      ++misses_in_a_row;
    }
  }
  for (double rate = passed * kFineFactor;
       passed > 0 && rate < std::min(2 * passed, kCoarseTop);
       rate *= kFineFactor) {
    run_step(rate);
  }
  ladder += "]";
  const int64_t phase_end = NowNs();
  tracer().Enable(false);
  const std::map<std::string, double> after = stack->ScrapeMetrics();
  for (const std::string& error : gen.errors()) report->Check(false, error);

  // Steady phase ran no cold search: every plan-cache miss was a warm
  // request, and every warm request warm-started.
  auto delta = [&](const std::string& name) {
    auto a = after.find(name);
    auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  };
  const double misses = delta("galvatron_serve_plan_cache_misses_total");
  const double hits = delta("galvatron_serve_plan_cache_hits_total");
  const double warm_starts = delta("galvatron_serve_warm_start_total");
  report->Check(misses == static_cast<double>(gen.warm_sent()),
                galvatron::StrFormat("plan-cache misses %.0f != warm "
                                     "requests %lld",
                                     misses,
                                     static_cast<long long>(gen.warm_sent())));
  report->Check(warm_starts == misses, "a warm request did not warm-start");

  // Served plans equal the library's, for hits (which replay the cold
  // answers) and for the sampled warm starts. Their simulated throughput is
  // the plan-quality metric.
  double samples_per_s = 0, err_pct = 0;
  int quality_n = 0;
  auto check_served = [&](const Pair& pair, int64_t budget,
                          const std::string& served, double estimated_s,
                          galvatron::TrainingPlan* plan_out) {
    const ClusterSpec cluster = MakeCluster(pair.gpus, budget);
    const galvatron::ModelSpec model = galvatron::BuildModel(pair.model);
    auto library = Galvatron::Plan(model, cluster);
    report->Check(library.ok() && CanonicalPlan(library->plan) == served,
                  "served plan differs from library Galvatron::Plan");
    if (!library.ok()) return;
    auto sim = Galvatron::Measure(model, library->plan, cluster);
    report->Check(sim.ok() && !sim->oom, "served plan OOMs in simulation");
    if (!sim.ok()) return;
    ++quality_n;
    samples_per_s += sim->throughput_samples_per_sec;
    err_pct += 100.0 * std::abs(estimated_s - sim->iteration_seconds) /
               sim->iteration_seconds;
    if (plan_out != nullptr) *plan_out = library->plan;
  };
  for (const auto& sample : gen.warm_samples()) {
    check_served(inputs[sample.request.input].pair, sample.request.budget,
                 sample.plan, sample.estimated_s, nullptr);
  }
  // The api layer replays each hit input's plan through the codec.
  double to_json_us = 0, parse_us = 0, response_bytes = 0;
  for (const Input& input : inputs) {
    JsonValue root;
    const std::string served = ServedPlan(input.hit_body, &root);
    galvatron::TrainingPlan plan;
    check_served(input.pair, input.budget, served,
                 JsonNumberAt(root, "iteration_seconds", "estimated"), &plan);
    tracer().Enable(args.trace);
    int64_t t0 = NowNs();
    std::string json;
    {
      ScopedSpan span("api.plan_to_json");
      json = galvatron::PlanToJson(plan);
    }
    to_json_us += (NowNs() - t0) / 1e3;
    t0 = NowNs();
    {
      ScopedSpan span("api.parse_plan");
      report->Check(galvatron::ParsePlanJson(json).ok(), "plan round trip");
    }
    parse_us += (NowNs() - t0) / 1e3;
    tracer().Enable(false);
    response_bytes += static_cast<double>(input.hit_body.size());
  }
  if (quality_n > 0) {
    samples_per_s /= quality_n;
    err_pct /= quality_n;
  }
  const double n_inputs = static_cast<double>(inputs.size());

  const double max_rps = MaxRateAtSlo(steps, Limits());
  report->Check(max_rps > 0, "no ladder step met the SLO");
  report->E2e("cpu_ms_per_op",
              NsToMs(fixed.server_cpu_ns) /
                  std::max<int64_t>(1, fixed.step.attempted),
              "ms");
  report->Layer("wall.ops_per_s", max_rps, "1/s");
  E2ePercentile(report, "primary_cpu_ms_p50", fixed.handle_cpu_ms[kHit], 0.50);
  E2ePercentile(report, "secondary_cpu_ms_p50", fixed.handle_cpu_ms[kWarm],
                0.50);
  report->Layer("wall.primary_ms_p50", Percentile(fixed.latency_ms[kHit], 0.5),
                "ms");
  report->Layer("wall.secondary_ms_p50",
                Percentile(fixed.latency_ms[kWarm], 0.5), "ms");
  // Tails take both fixed-rate steps of the traced run: one has too few
  // warm samples for a p99.
  LayerPercentile(report, "tail.primary_ms",
                  Concat(fixed.latency_ms[kHit], untraced.latency_ms[kHit]),
                  0.99);
  LayerPercentile(report, "tail.secondary_ms",
                  Concat(fixed.latency_ms[kWarm], untraced.latency_ms[kWarm]),
                  0.99);
  report->E2e("plan_samples_per_s", samples_per_s, "samples/s");
  report->E2e("estimate_err_pct", err_pct, "%");

  JsonValue first_hit;
  ServedPlan(inputs.front().hit_body, &first_hit);
  report->detail
      .Num("search_threads",
           JsonNumberAt(first_hit, "search_threads_used", "search_stats"))
      .Num("max_rps_at_slo", max_rps)
      .Num("fixed_rate", kFixedRate)
      .Latency("hit_ms", Summarize(fixed.latency_ms[kHit]))
      .Latency("warm_ms", Summarize(fixed.latency_ms[kWarm]))
      .Latency("hit_handle_cpu_ms", Summarize(fixed.handle_cpu_ms[kHit]))
      .Latency("warm_handle_cpu_ms", Summarize(fixed.handle_cpu_ms[kWarm]))
      .Int("fixed_attempted", fixed.step.attempted)
      .Int("fixed_failed", fixed.step.failed)
      .Num("fixed_lag_p99_ms", fixed.step.lag_p99_ms)
      .Raw("ladder", ladder)
      .Int("hit_requests", gen.hit_sent())
      .Int("warm_requests", gen.warm_sent())
      .Num("plan_cache_hits", hits)
      .Num("plan_cache_misses", misses)
      .Int("plans_simulated", quality_n)
      .Num("plan_samples_per_s", samples_per_s)
      .Num("estimate_err_pct", err_pct);

  if (!args.trace) return;
  report->Layer("serve.handle_ms.hit", Mean(fixed.handle_ms[kHit]), "ms");
  report->Layer("serve.handle_ms.warm", Mean(fixed.handle_ms[kWarm]), "ms");
  report->Layer("serve.wire_ms.hit", Mean(fixed.wire_ms[kHit]), "ms");
  report->Layer("serve.wire_ms.warm", Mean(fixed.wire_ms[kWarm]), "ms");
  report->Layer("serve.plan_cache_hit_ratio", Ratio(hits, hits + misses),
                "ratio");
  report->Layer("serve.warm_start_ratio", Ratio(warm_starts, misses),
                "ratio");
  report->Layer("serve.coalesced", delta("galvatron_serve_coalesced_total"),
                "count");
  report->Layer("serve.rejected", delta("galvatron_serve_rejected_total"),
                "count");
  report->Layer("serve.in_flight_peak", stack->in_flight_peak(), "count");
  report->Layer("loadgen.lag_ms_p99", fixed.step.lag_p99_ms, "ms");
  report->Layer("loadgen.sent", static_cast<double>(report->attempted),
                "count");
  report->Layer("loadgen.failed", static_cast<double>(report->failed),
                "count");
  const WarmStats& w = fixed.warm;
  report->Layer("search.optimize_ms", Ratio(w.search_ms, w.n), "ms");
  report->Layer("search.cost_cache_hit_ratio",
                Ratio(w.cost_hits, w.cost_hits + w.cost_misses), "ratio");
  report->Layer("search.frontier_hit_ratio",
                Ratio(w.frontier_hits, w.frontier_hits + w.frontier_misses),
                "ratio");
  report->Layer("estimator.calls", Ratio(w.cost_misses, w.n), "count");
  report->Layer("api.plan_to_json_us", to_json_us / n_inputs, "us");
  report->Layer("api.parse_plan_us", parse_us / n_inputs, "us");
  report->Layer("api.response_bytes", response_bytes / n_inputs, "bytes");
  report->Layer("setup.build_ms", Percentile(build_ms, 0.5), "ms");
  report->Layer("setup.prime_ms", Percentile(prime_ms, 0.5), "ms");
  report->Layer("trace.overhead_pct",
                100.0 * ((static_cast<double>(fixed.server_cpu_ns) /
                          fixed.step.attempted) /
                             (static_cast<double>(untraced.server_cpu_ns) /
                              untraced.step.attempted) -
                         1.0),
                "%");
  AddSpanMetrics(report, tracer().spans(), phase_start, phase_end);
}

}  // namespace perfbench
