// e2e_bench workloads: what one op is, how its answer is checked, and
// how a traced op's layer calls are replayed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace e2e {

/// Knobs shared by every workload.
struct Settings {
  std::uint64_t seed = 2017;  ///< root seed of every simulation
  double tsim_s = 0.0;        ///< Tsim override; 0 = the workload default
  std::string scratch_dir;    ///< where store files live
};

/// Exact work of one op, read from the program's own counters.
struct Counts {
  std::uint64_t net_runs = 0;
  std::uint64_t des_events = 0;
  std::uint64_t milp_solves = 0;
  std::uint64_t lp_pivots = 0;
  std::uint64_t sims = 0;  ///< fresh design-point simulations

  friend bool operator==(const Counts&, const Counts&) = default;
};

/// Outcome of one op.
struct OpRecord {
  double seconds = 0.0;  ///< host wall time of the op, check excluded
  Counts counts;
  std::string error;  ///< empty when the answer checked out
};

/// Per-layer values of one traced op, by metric name.
using LayerValues = std::map<std::string, double>;

/// See file comment.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One set-up as a user of this workload pays it; the caller times it.
  virtual void setup_once() = 0;

  /// Untimed: computes the references ops are checked against.
  virtual void prepare() = 0;

  /// Runs and checks one op.  With a tracer the op runs traced: spans
  /// around its calls and, where the op lets one be injected, the
  /// counting channel.  `corrupt` flips one bit of the answer before
  /// the check, to prove the check catches it.
  virtual OpRecord run_op(int op, Tracer* tracer, bool corrupt) = 0;

  /// Replays the layer calls of the last op run (which must have been
  /// traced with `tracer`) through public functions on the same inputs,
  /// fills `out` with the per-layer values, and returns an error when a
  /// replayed total differs from the program's own counter.
  virtual std::string replay(int op, Tracer& tracer, LayerValues& out) = 0;
};

/// Median of `v`; 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Builds a workload by name; null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Settings& s);

}  // namespace e2e
