// hi_campaign — the resumable campaign runner.  A thin argv shim: all
// campaign logic lives in hi::campaign (src/campaign/) — CampaignPlan
// resolves the grid, run_single() executes it against one store, and
// CampaignReport owns the output formats.  `hi_campaign --bogus` prints
// the flags.
//
// Modes: --store runs (or with --resume, finishes) a campaign; --audit
// integrity-scans a store; --compact rewrites one without superseded
// records; --dump-scenario prints the paper scenario as JSON.
// --threads parallelises each cell in-process, bit-identically.
//
// Exit codes: 0 success, 1 --audit found damage, 2 usage error (bad
// flag or rejected input).
#include <iostream>
#include <string>

#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "cli_args.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

int run(int argc, char** argv) {
  namespace cli = hi::cli;
  namespace flags = hi::cli::flags;
  using hi::dse::ExplorerKind;
  using hi::store::FsyncPolicy;
  hi::campaign::PlanSpec spec;
  hi::campaign::RunConfig cfg;
  std::string audit_path;
  std::string compact_path;
  bool dump_scenario = false;
  bool json = false;

  cli::FlagTable table({"--store FILE [options]",
                        "--audit FILE | --compact FILE",
                        "--dump-scenario"});
  table.section("modes")
      .add({"--store", "FILE", "single-process campaign store",
            cli::text(cfg.store_path)})
      .add({"--audit", "FILE", "integrity-scan a store", cli::text(audit_path)})
      .add({"--compact", "FILE", "rewrite a store without superseded records",
            cli::text(compact_path)})
      .add(flags::dump_scenario(dump_scenario));
  table.section("campaign options")
      .add(flags::scenario(cli::append(spec.scenario_files)))
      .add(flags::gen_seed(cli::append(spec.gen_seeds)))
      .add(flags::pdr_min(spec.pdr_grid))
      .add(cli::choice("--explorer", "exploration strategy", spec.explorer,
                       {{"alg1", ExplorerKind::kAlgorithm1},
                        {"exhaustive", ExplorerKind::kExhaustive},
                        {"annealing", ExplorerKind::kAnnealing},
                        {"fast-ilp", ExplorerKind::kFastIlp}}))
      .add({"--budget", "N", "explorer iteration budget (default: its own)",
            cli::number(spec.budget, cli::at_least(0))})
      .add(flags::gamma(spec.robust.gamma))
      .add(flags::realizations(spec.robust.realizations))
      .add(flags::confidence(spec.robust.confidence))
      .add(flags::threads(spec.threads))
      .add(flags::tsim(spec.tsim_s))
      .add(flags::runs(spec.runs))
      .add(flags::seed(spec.seed))
      .add(cli::choice("--fsync", "store durability", cfg.fsync,
                       {{"none", FsyncPolicy::kNone},
                        {"checkpoint", FsyncPolicy::kCheckpoint},
                        {"always", FsyncPolicy::kAlways}}))
      .add({"--resume", "", "skip cells already checkpointed in the store",
            cli::on(cfg.resume)})
      .add({"--json", "", "machine-readable report on stdout", cli::on(json)})
      .add({"--cell-delay-ms", "N", "sleep after each cell (test hook)",
            cli::number(cfg.cell_delay_ms, cli::at_least(0))});
  if (!table.parse(argc, argv)) {
    return table.usage();
  }

  if (dump_scenario) {
    std::cout << hi::store::scenario_to_json(hi::model::Scenario{});
    return 0;
  }
  if (!audit_path.empty()) {
    const hi::store::RecoveryStats st = hi::store::EvalStore::audit(audit_path);
    std::cout << "records=" << st.records
              << " corrupt_dropped=" << st.corrupt_dropped
              << " tail_truncated=" << (st.tail_truncated ? "yes" : "no")
              << " desynced=" << (st.desynced ? "yes" : "no")
              << " truncated_bytes=" << st.truncated_bytes
              << (st.clean() ? "  [clean]" : "  [repaired on next open]")
              << "\n";
    return st.clean() ? 0 : 1;
  }
  if (!compact_path.empty()) {
    const auto st = hi::store::EvalStore::compact(compact_path);
    std::cout << "compacted: " << st.records_before << " -> "
              << st.records_after << " records, " << st.bytes_before << " -> "
              << st.bytes_after << " bytes\n";
    return 0;
  }
  if (cfg.store_path.empty()) {
    return table.usage();
  }

  std::string err;
  const auto plan = hi::campaign::CampaignPlan::build(spec, &err);
  if (!plan) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }

  if (!json) {
    cfg.recovery_warnings = &std::cout;
  }
  const hi::campaign::CampaignReport report =
      hi::campaign::run_single(*plan, cfg, nullptr);
  report.print(std::cout, json);
  return 0;
}

int main(int argc, char** argv) {
  return hi::cli::run_main("hi_campaign", [&] { return run(argc, argv); });
}
