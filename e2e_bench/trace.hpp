// e2e_bench tracing: spans recorded around the benchmark's own calls
// into hi-opt's layers, and a counting channel decorator.
//
// Spans live in memory (one vector, main thread only) and are written
// out once when the benchmark ends.  A span's self time is its duration
// minus the time its child spans cover; children are always nested
// calls made one after another, so they never overlap.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "channel/channel.hpp"
#include "net/network.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds from `t0` to now.
[[nodiscard]] double seconds_since(Clock::time_point t0);

/// One timed call into a layer.
struct Span {
  std::string name;
  double start_s = 0.0;  ///< from the tracer's creation
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at the root
  int op = 0;       ///< the op this span belongs to

  [[nodiscard]] double duration_s() const { return end_s - start_s; }
};

/// See file comment.  Not thread-safe: spans are opened and closed by
/// the benchmark's driving thread only.
class Tracer {
 public:
  Tracer();

  /// Opens a span nested in the innermost open one; returns its index.
  int open(std::string_view name, int op);
  /// Closes the innermost open span, which must be `id`.
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations of the closed spans called `name` that belong to `op`.
  [[nodiscard]] std::vector<double> durations(std::string_view name,
                                              int op) const;
  /// Sum of durations(name, op).
  [[nodiscard]] double total(std::string_view name, int op) const;

  /// Self time of every span, aligned with spans().
  [[nodiscard]] std::vector<double> self_times() const;

  /// Writes every span with its self time as one JSON document.
  void write_json(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// RAII span; a null tracer records nothing, so untraced ops run the
/// same code with no timing calls.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, int op)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Totals gathered by every CountingChannel sharing it.  Channels flush
/// into it when destroyed, so read it only after the simulations that
/// used them have finished.
struct ChannelStats {
  std::atomic<std::uint64_t> samples{0};      ///< path-loss values drawn
  std::atomic<std::uint64_t> batch_calls{0};  ///< path_loss_batch_db calls
  std::atomic<std::uint64_t> batch_width{0};  ///< Σ n over those calls
  std::atomic<std::uint64_t> timed_samples{0};  ///< samples in timed calls
  std::atomic<std::uint64_t> timed_ns{0};       ///< wall time of those calls

  void reset();
};

/// Forwards every call to the wrapped channel unchanged — same draws,
/// same order — while counting samples and timing one call in
/// kTimeEvery.
class CountingChannel final : public hi::channel::ChannelModel {
 public:
  static constexpr std::uint64_t kTimeEvery = 64;

  CountingChannel(std::unique_ptr<hi::channel::ChannelModel> inner,
                  ChannelStats& stats);
  ~CountingChannel() override;
  CountingChannel(const CountingChannel&) = delete;
  CountingChannel& operator=(const CountingChannel&) = delete;

  double path_loss_db(int i, int j, double t) override;
  void path_loss_batch_db(int i, const int* js, std::size_t n, double t,
                          double* out) override;
  [[nodiscard]] double mean_path_loss_db(int i, int j) const override;

 private:
  std::unique_ptr<hi::channel::ChannelModel> inner_;
  ChannelStats& stats_;
  // Local tallies (one simulation drives a channel from one thread),
  // flushed into stats_ by the destructor.
  std::uint64_t calls_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t batch_calls_ = 0;
  std::uint64_t batch_width_ = 0;
  std::uint64_t timed_samples_ = 0;
  std::uint64_t timed_ns_ = 0;
};

/// A factory whose channels are `inner`'s wrapped in CountingChannel.
[[nodiscard]] hi::net::ChannelFactory counting_factory(
    hi::net::ChannelFactory inner, ChannelStats& stats);

}  // namespace e2e
