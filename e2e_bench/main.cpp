// e2e_bench: the cost of a certified optimum, end to end and per layer.
//
//   e2e_bench --workload certify|requery|crowd --seed N --seconds S
//             --trace 0|1 [--tsim S] [--corrupt] [--scratch DIR]
//             [--spans FILE]
//
// Closed loop: one client issues one op at a time (certify and requery
// ops use 2 worker threads).  A run prepares its references (untimed),
// times repeated set-ups, discards one warm-up op, then runs ops until
// --seconds have passed.  Every timed figure is a median over ops or
// set-ups, never a run total, so one burst of host noise moves one
// sample, not the result; and the process's threads are rotated over
// all CPUs (CpuRotator), so no run is timed on one contended CPU only.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates
// untraced and traced ops; after each traced op its layer calls are
// replayed with spans (see workloads.hpp) and the per-layer metrics are
// medians over traced ops.  --tsim shortens the simulations (smoke
// tests); --corrupt flips one bit of the first measured op's answer so
// a test can see the check fail.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Lines before it, each starting with '#', restate the figures with the
// exact per-op counts and fail_ratio.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using e2e::Clock;
using e2e::median;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0); BENCHMARK.json lists the same.
constexpr MetricDef kEndToEnd[] = {
    {"op_p50_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (--trace 1); BENCHMARK.json lists the same.  A
/// layer a workload never calls reports 0.
constexpr MetricDef kLayers[] = {
    {"op.sims", "count"},
    {"op.events", "count"},
    {"op.milp_solves", "count"},
    {"op.events_per_s", "1/s"},
    {"trace.op_untraced_p50_s", "s"},
    {"trace.op_traced_p50_s", "s"},
    {"trace.overhead_s", "s"},
    {"dse.explore_s", "s"},
    {"dse.designs_visited", "count"},
    {"dse.sims_per_feasible", "ratio"},
    {"dse.cache_serve_s", "s"},
    {"milp.round_s_p50", "s"},
    {"milp.round_s_total", "s"},
    {"milp.solves", "count"},
    {"milp.lp_pivots", "count"},
    {"milp.bnb_nodes", "count"},
    {"milp.share", "ratio"},
    {"exec.batches", "count"},
    {"exec.batch_size_mean", "count"},
    {"exec.batch_s", "s"},
    {"exec.worker_busy_ratio", "ratio"},
    {"net.simulate_s_p50", "s"},
    {"net.runs", "count"},
    {"des.events", "count"},
    {"des.events_per_s", "1/s"},
    {"des.heap_highwater", "count"},
    {"channel.samples", "count"},
    {"channel.sample_ns", "ns"},
    {"channel.batch_width_mean", "count"},
    {"store.put_s", "s"},
    {"store.sync_s", "s"},
    {"store.bytes_written", "bytes"},
    {"store.open_s", "s"},
    {"store.preload_s", "s"},
    {"crowd.point_s.m1", "s"},
    {"crowd.point_s.m2", "s"},
    {"crowd.point_s.m4", "s"},
    {"crowd.point_s.m8", "s"},
    {"crowd.channel_build_s.m1", "s"},
    {"crowd.channel_build_s.m2", "s"},
    {"crowd.channel_build_s.m4", "s"},
    {"crowd.channel_build_s.m8", "s"},
    {"crowd.cross_wasted_ratio", "ratio"},
};

constexpr double kSetupBatchS = 0.002;  ///< set-ups are timed in batches
constexpr int kSetupSamplesUpFront = 5;
constexpr int kSetupSamplesPerOp = 3;
constexpr std::chrono::milliseconds kRotateSlice{20};

struct Args {
  std::string workload;
  std::uint64_t seed = 2017;
  double seconds = 10.0;
  bool trace = false;
  double tsim_s = 0.0;
  bool corrupt = false;
  std::string scratch = ".";
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why
            << "\nusage: e2e_bench --workload certify|requery|crowd --seed N "
               "--seconds S --trace 0|1 [--tsim S] [--corrupt] "
               "[--scratch DIR] [--spans FILE]\n";
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T v{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    usage("bad value for " + std::string(flag) + ": " + std::string(text));
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, v);
    } else if (flag == "--trace") {
      const int t = parse_number<int>(flag, v);
      if (t != 0 && t != 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--tsim") {
      a.tsim_s = parse_number<double>(flag, v);
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  if (a.tsim_s < 0.0) usage("--tsim must be positive");
  return a;
}

/// Times set-ups.  Set-ups far shorter than the clock's noise are timed
/// in batches of equal size; each sample is a batch's time divided by
/// its size.  Samples are taken between ops as well as before them, so
/// their median sees the same host conditions as the ops' median.
class SetupTimer {
 public:
  explicit SetupTimer(e2e::Workload& w) : w_(w) {
    for (;;) {
      const double t = time_batch();
      if (t >= kSetupBatchS || batch_ >= (1 << 20)) break;
      batch_ *= 2;
    }
  }

  void sample(int n) {
    for (int i = 0; i < n; ++i) per_setup_.push_back(time_batch() / batch_);
  }

  [[nodiscard]] double median_s() const { return median(per_setup_); }
  [[nodiscard]] std::size_t samples() const { return per_setup_.size(); }
  [[nodiscard]] int batch() const { return batch_; }

 private:
  double time_batch() {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < batch_; ++i) w_.setup_once();
    return e2e::seconds_since(t0);
  }

  e2e::Workload& w_;
  int batch_ = 1;
  std::vector<double> per_setup_;
};

/// Rotates every other thread of the process round-robin over the CPUs
/// it may use, one CPU per thread per slice, until destroyed.  Other
/// tenants slow some CPUs of a shared host more than others, and the
/// kernel keeps a busy thread where it is, so without rotation an op
/// would be timed on whichever CPUs it landed on; rotating times every
/// op on all of them alike.  Threads an op creates join the rotation
/// at the next slice.
class CpuRotator {
 public:
  explicit CpuRotator(std::chrono::milliseconds slice) : slice_(slice) {
    if (sched_getaffinity(0, sizeof all_, &all_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
      }
    }
    if (cpus_.size() > 1) thread_ = std::thread([this] { loop(); });
  }
  ~CpuRotator() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (!thread_.joinable()) return;
    thread_.join();
    for (const pid_t tid : threads()) sched_setaffinity(tid, sizeof all_, &all_);
    sched_setaffinity(0, sizeof all_, &all_);
  }
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

 private:
  /// The process's threads other than the caller, in id order.
  static std::vector<pid_t> threads() {
    std::vector<pid_t> tids;
    const pid_t self = gettid();
    std::error_code ec;
    for (const auto& e :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const pid_t tid = std::atoi(e.path().filename().c_str());
      if (tid > 0 && tid != self) tids.push_back(tid);
    }
    std::sort(tids.begin(), tids.end());
    return tids;
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t k = 0; !stop_; ++k) {
      const std::vector<pid_t> tids = threads();
      for (std::size_t i = 0; i < tids.size(); ++i) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[(k + i) % cpus_.size()], &one);
        // A thread that ended since it was listed fails with ESRCH.
        (void)sched_setaffinity(tids[i], sizeof one, &one);
      }
      cv_.wait_for(lock, slice_, [this] { return stop_; });
    }
  }

  std::chrono::milliseconds slice_;
  cpu_set_t all_{};  ///< the CPUs the process may use
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs ops and keeps the tally.
class Runner {
 public:
  Runner(e2e::Workload& w, const Args& a) : w_(w), a_(a) {}

  /// One op; returns its seconds, or a negative value when it failed.
  double op(e2e::Tracer* tracer, bool corrupt) {
    const int id = next_id_++;
    ++attempted_;
    try {
      const e2e::OpRecord r = w_.run_op(id, tracer, corrupt);
      if (!counts_) counts_ = r.counts;
      if (!r.error.empty()) return fail(id, r.error);
      if (r.counts != *counts_) {
        return fail(id, "exact counts differ from the first op's");
      }
      if (tracer != nullptr) {
        e2e::LayerValues layers;
        const std::string mismatch = w_.replay(id, *tracer, layers);
        if (!mismatch.empty()) return fail(id, "replay: " + mismatch);
        for (const auto& [name, v] : layers) layers_[name].push_back(v);
      }
      return r.seconds;
    } catch (const std::exception& e) {
      return fail(id, e.what());
    }
  }

  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] const e2e::Counts& counts() const {
    static const e2e::Counts none{};
    return counts_ ? *counts_ : none;
  }
  [[nodiscard]] const std::map<std::string, std::vector<double>>& layers()
      const {
    return layers_;
  }

 private:
  double fail(int id, const std::string& why) {
    ++failed_;
    std::cerr << "e2e_bench: " << a_.workload << " op " << id
              << " failed: " << why << "\n";
    return -1.0;
  }

  e2e::Workload& w_;
  const Args& a_;
  int next_id_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
  std::optional<e2e::Counts> counts_;
  std::map<std::string, std::vector<double>> layers_;
};

void print_metric(const char* name, double v, const char* unit) {
  std::printf("# %-26s %.17g %s\n", name, v, unit);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  e2e::Settings s;
  s.seed = a.seed;
  s.tsim_s = a.tsim_s;
  s.scratch_dir = a.scratch;
  std::unique_ptr<e2e::Workload> w = e2e::make_workload(a.workload, s);
  if (!w) usage("unknown workload " + a.workload);

  std::optional<SetupTimer> setup;
  try {
    std::filesystem::create_directories(a.scratch);
    w->prepare();
    setup.emplace(*w);
    setup->sample(kSetupSamplesUpFront);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << a.workload << " preparation failed: "
              << e.what() << "\n";
    return 1;
  }

  const CpuRotator rotator(kRotateSlice);
  Runner run(*w, a);
  (void)run.op(nullptr, false);  // warm-up, discarded
  e2e::Tracer tracer;
  std::vector<double> untraced, traced;
  bool corrupt = a.corrupt;
  const Clock::time_point t0 = Clock::now();
  while (untraced.empty() || e2e::seconds_since(t0) < a.seconds) {
    const double u = run.op(nullptr, corrupt);
    corrupt = false;
    if (u >= 0.0) untraced.push_back(u);
    if (a.trace) {
      const double t = run.op(&tracer, false);
      if (t >= 0.0) traced.push_back(t);
    }
    try {
      setup->sample(kSetupSamplesPerOp);
    } catch (const std::exception& e) {
      std::cerr << "e2e_bench: " << a.workload << " set-up failed: "
                << e.what() << "\n";
      return 1;
    }
    if (untraced.empty() && run.failed() > 0) break;  // nothing will pass
  }

  const e2e::Counts& c = run.counts();
  const double op_p50 = median(untraced);
  const double events_per_s =
      op_p50 > 0.0 ? static_cast<double>(c.des_events) / op_p50 : 0.0;
  std::map<std::string, double> metrics;
  if (!a.trace) {
    metrics["op_p50_s"] = op_p50;
    metrics["setup_s"] = setup->median_s();
    metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    for (const MetricDef& m : kLayers) metrics[m.name] = 0.0;
    for (const auto& [name, values] : run.layers()) {
      if (!metrics.contains(name)) {
        std::cerr << "e2e_bench: undeclared layer metric " << name << "\n";
        return 1;
      }
      metrics[name] = median(values);
    }
    metrics["op.sims"] = static_cast<double>(c.sims);
    metrics["op.events"] = static_cast<double>(c.des_events);
    metrics["op.milp_solves"] = static_cast<double>(c.milp_solves);
    metrics["op.events_per_s"] = events_per_s;
    metrics["trace.op_untraced_p50_s"] = op_p50;
    metrics["trace.op_traced_p50_s"] = median(traced);
    metrics["trace.overhead_s"] = median(traced) - op_p50;
  }

  bool finite = true;
  for (const auto& [name, v] : metrics) finite = finite && std::isfinite(v);
  const bool correct = run.failed() == 0 && finite && !untraced.empty();

  std::printf("# e2e_bench %s seed=%llu trace=%d ops=%zu (+1 warm-up "
              "discarded) traced_ops=%zu\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, untraced.size(), traced.size());
  std::printf("# setup: median of %zu samples of %d set-ups each\n",
              setup->samples(), setup->batch());
  std::printf("# op seconds:");
  for (const double u : untraced) std::printf(" %.6f", u);
  std::printf("\n");
  std::printf("# fail_ratio %d/%d = %.17g\n", run.failed(), run.attempted(),
              static_cast<double>(run.failed()) / run.attempted());
  print_metric("sims_per_op", static_cast<double>(c.sims), "count");
  print_metric("events_per_op", static_cast<double>(c.des_events), "count");
  print_metric("milp_solves_per_op", static_cast<double>(c.milp_solves),
               "count");
  print_metric("events_per_s", events_per_s, "1/s");
  const std::span<const MetricDef> defs =
      a.trace ? std::span<const MetricDef>(kLayers)
              : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& m : defs) print_metric(m.name, metrics[m.name], m.unit);

  if (a.trace && !a.spans.empty()) {
    try {
      tracer.write_json(a.spans);
    } catch (const std::exception& e) {
      std::cerr << "e2e_bench: " << e.what() << "\n";
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", run.attempted(), run.failed());
  bool first = true;
  for (const MetricDef& m : defs) {
    const double v = std::isfinite(metrics[m.name]) ? metrics[m.name] : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, v, m.unit);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
