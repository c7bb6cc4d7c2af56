#include "exec/batch_evaluator.hpp"

#include <utility>

#include "common/assert.hpp"
#include "obs/timer.hpp"

namespace hi::exec {

BatchEvaluator::BatchEvaluator(dse::Evaluator& eval, int threads)
    : eval_(eval), threads_(threads) {
  HI_REQUIRE(threads >= 0,
             "BatchEvaluator: threads must be >= 0 (0 = serial), got "
                 << threads);
}

std::vector<const dse::Evaluation*> BatchEvaluator::evaluate(
    const std::vector<model::NetworkConfig>& cfgs) {
  // Resolved per call: explorers install a per-run registry into the
  // evaluator (see dse::RunScope), so the active one can change
  // between batches.  Counters are atomic, so concurrent batches on the
  // same registry are fine; exec.* totals are schedule-dependent (serial
  // mode schedules no tasks) and deliberately not part of the
  // bit-identical contract — the dse.* / net.* counters are.
  obs::MetricsRegistry* metrics = eval_.metrics();
  obs::ScopedTimer timer(metrics, "exec.batch_s");
  if (metrics != nullptr) {
    metrics->counter("exec.batches").add(1);
    metrics->counter("exec.requests").add(cfgs.size());
  }

  std::vector<const dse::Evaluation*> out;
  out.reserve(cfgs.size());

  if (threads_ == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const model::NetworkConfig& cfg : cfgs) {
      out.push_back(&eval_.evaluate(cfg));
    }
    return out;
  }

  // ---- schedule: fan the missing design points out across the pool ----
  std::unordered_map<std::uint64_t, std::shared_future<dse::Evaluation>> waits;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const model::NetworkConfig& cfg : cfgs) {
      const std::uint64_t key = cfg.design_key();
      if (waits.contains(key) || eval_.cached(cfg)) {
        continue;
      }
      if (const auto it = computed_.find(key); it != computed_.end()) {
        waits.emplace(key, it->second);  // another batch is already on it
        if (metrics != nullptr) {
          metrics->counter("exec.dedup_inflight_hits").add(1);
        }
        continue;
      }
      if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
      std::shared_future<dse::Evaluation> fut =
          pool_->submit([this, cfg] { return eval_.simulate_uncached(cfg); })
              .share();
      computed_.emplace(key, fut);
      waits.emplace(key, fut);
      if (metrics != nullptr) {
        metrics->counter("exec.tasks_scheduled").add(1);
      }
    }
  }

  // ---- wait: workers fill the futures while the lock is free ----------
  for (const auto& [key, fut] : waits) {
    fut.wait();
  }

  // ---- commit: replay the serial bookkeeping in request order ---------
  std::lock_guard<std::mutex> lock(mu_);
  for (const model::NetworkConfig& cfg : cfgs) {
    const std::uint64_t key = cfg.design_key();
    const auto it = waits.find(key);
    if (it == waits.end() || eval_.cached(cfg)) {
      // Cached before this batch, committed earlier in this loop, or
      // committed meanwhile by a concurrent batch: the plain hit path.
      out.push_back(&eval_.evaluate(cfg));
      continue;
    }
    try {
      const dse::Evaluation& computed = it->second.get();
      out.push_back(&eval_.admit(cfg, &computed));
      computed_.erase(key);  // now owned by the evaluator cache
    } catch (...) {
      // The worker's simulation failed.  Drop the poisoned future so a
      // retry starts clean, then reproduce the failure serially:
      // simulate_uncached is pure, so admit() throws the same exception
      // after the same counter updates a serial run would have made.
      computed_.erase(key);
      out.push_back(&eval_.admit(cfg, nullptr));
    }
  }
  return out;
}

}  // namespace hi::exec
