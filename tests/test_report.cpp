// Unit tests for the exploration-result reporting (dse/report.hpp).
#include "dse/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dse/explorer.hpp"

namespace hi::dse {
namespace {

ExplorationResult tiny_result() {
  EvaluatorSettings s;
  s.sim.duration_s = 5.0;
  s.sim.seed = 3;
  s.runs = 1;
  Evaluator ev(s);
  model::Scenario sc;
  sc.max_nodes = 4;
  ExplorationOptions opt;
  opt.pdr_min = 0.0;
  return run_exhaustive(sc, ev, opt);
}

TEST(Report, CsvHasHeaderAndOneRowPerCandidate) {
  const ExplorationResult res = tiny_result();
  std::ostringstream oss;
  write_history_csv(res, oss);
  const std::string csv = oss.str();
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, res.history.size() + 1);  // header + rows
  EXPECT_NE(csv.find("sim_pdr"), std::string::npos);
  EXPECT_NE(csv.find("Star"), std::string::npos);
  EXPECT_NE(csv.find("Mesh"), std::string::npos);
}

TEST(Report, CsvQuotesLabels) {
  const ExplorationResult res = tiny_result();
  std::ostringstream oss;
  write_history_csv(res, oss);
  // Labels contain commas; they must be quoted to stay one CSV field.
  EXPECT_NE(oss.str().find("\"[0,"), std::string::npos);
}

TEST(Report, SummaryFeasible) {
  ExplorationResult res = tiny_result();
  res.feasible = true;
  res.best = res.history.front().cfg;
  res.best_pdr = 0.93;
  res.best_nlt_s = 86'400.0 * 20;
  res.best_power_mw = 1.234;
  const std::string s = summarize(res, 0.9);
  EXPECT_NE(s.find("93.0%"), std::string::npos);
  EXPECT_NE(s.find("20.0 days"), std::string::npos);
  EXPECT_NE(s.find("1.234 mW"), std::string::npos);
}

TEST(Report, SummaryInfeasible) {
  ExplorationResult res;
  res.feasible = false;
  res.simulations = 42;
  const std::string s = summarize(res, 0.99);
  EXPECT_NE(s.find("infeasible"), std::string::npos);
  EXPECT_NE(s.find("99.0%"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

}  // namespace
}  // namespace hi::dse
