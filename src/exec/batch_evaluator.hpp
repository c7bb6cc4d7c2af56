// hi-opt: parallel batch evaluation of design points — concurrent RunSim.
//
// BatchEvaluator layers a ThreadPool over dse::Evaluator.  A batch call
// runs in three phases:
//
//   schedule — under the mutex, walk the batch once and fan every design
//              point that is neither cached nor already in flight out to
//              the pool as an Evaluator::simulate_uncached task (pure —
//              no shared state).  A mutex-protected map of shared
//              futures keyed by design_key() provides per-key in-flight
//              dedup: two workers never simulate the same design point,
//              even across concurrent evaluate() calls.
//   wait     — block (lock released) until the batch's futures resolve.
//   commit   — under the mutex, replay Evaluator::admit() in the
//              caller's request order, installing the computed results.
//
// Because a design point's randomness is seeded from design_key() and
// all design points share one channel-realization root (common random
// numbers), and because commit replays the exact serial bookkeeping,
// results are bit-identical to a serial run at any thread count:
// same metrics, same incumbent (ties resolve in request order), same
// simulations() and cache_hits() counters.
//
// threads == 0 is the serial fallback: no pool, evaluation happens
// inline in request order (still under the mutex, so mixed serial /
// parallel use from multiple callers stays safe).  With threads >= 1
// the pool starts, under the same mutex, when a batch first has a
// design to simulate, so a walk served wholly from the cache starts no
// thread.
//
// A failed simulation is reproduced serially at commit time, in request
// order: the caller sees the same exception, after the same counter and
// cache updates, as a serial run that died on that design point; the
// poisoned future is dropped so a retry starts clean.
//
// Do not call evaluate() from inside a task of the same pool — the wait
// phase would block on a worker slot the caller itself occupies.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dse/evaluator.hpp"
#include "exec/thread_pool.hpp"
#include "model/config.hpp"

namespace hi::exec {

/// See file comment.
class BatchEvaluator {
 public:
  /// `threads` == 0 evaluates serially (no pool); >= 1 evaluates on a
  /// pool that wide, started by the first batch that simulates.  The
  /// evaluator must outlive the BatchEvaluator and must not be used
  /// directly while a batch call is in flight.
  BatchEvaluator(dse::Evaluator& eval, int threads);

  /// Evaluates every configuration of the batch and returns pointers
  /// into the evaluator's cache, aligned with `cfgs`.  The pointers stay
  /// valid for the evaluator's lifetime (see dse::Evaluator::evaluate).
  /// Safe to call concurrently from several threads.
  std::vector<const dse::Evaluation*> evaluate(
      const std::vector<model::NetworkConfig>& cfgs);

  /// Pool width, whether or not the pool has started; 0 in serial mode.
  [[nodiscard]] int threads() const { return threads_; }

 private:
  dse::Evaluator& eval_;
  int threads_;    ///< configured pool width; 0 = serial
  std::mutex mu_;  ///< guards eval_, pool_ and computed_
  std::unique_ptr<ThreadPool> pool_;  ///< null until the first simulation
  /// Results computed (or being computed) by the pool, not yet committed
  /// into the evaluator cache; entries are erased on commit.
  std::unordered_map<std::uint64_t, std::shared_future<dse::Evaluation>>
      computed_;
};

}  // namespace hi::exec
