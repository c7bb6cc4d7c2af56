#include "campaign/runner.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <ostream>
#include <set>
#include <thread>

#include "campaign/claims.hpp"
#include "common/assert.hpp"

namespace hi::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void mkdir_or_exist(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0) {
    HI_REQUIRE(errno == EEXIST, "cannot create campaign directory '"
                                    << dir << "': " << std::strerror(errno));
  }
}

void print_recovery_warning(const RunConfig& cfg,
                            const store::EvalStore& store) {
  if (cfg.recovery_warnings != nullptr && !store.recovery().clean()) {
    *cfg.recovery_warnings
        << "store recovery: dropped " << store.recovery().corrupt_dropped
        << " corrupt record(s), truncated "
        << store.recovery().truncated_bytes << " trailing byte(s)\n";
  }
}

store::CellResult to_cell_result(const dse::ExplorationResult& res) {
  store::CellResult cr;
  cr.feasible = res.feasible;
  cr.best = res.best;
  cr.best_power_mw = res.best_power_mw;
  cr.best_pdr = res.best_pdr;
  cr.best_nlt_s = res.best_nlt_s;
  cr.simulations = res.simulations;
  cr.iterations = res.iterations;
  return cr;
}

/// A worker's whole life between fork and _exit; returns the exit code.
class Worker {
 public:
  Worker(const CampaignPlan& plan, const RunConfig& cfg, int slot,
         std::uint64_t run_id)
      : plan_(plan), cfg_(cfg), slot_(slot) {
    store::StoreOptions sopt;
    sopt.fsync = cfg.fsync;
    sopt.channel_tag = plan.spec().channel_tag;
    sopt.metrics = &metrics_;
    shard_ = std::make_unique<store::EvalStore>(
        shard_path(cfg.shard_dir, slot), sopt);
    board_ = std::make_unique<ClaimBoard>(claims_dir(cfg.shard_dir), run_id,
                                          slot, cfg.lease_ms, &metrics_);
  }

  /// Joins the renewal thread when run() exits by an exception, so the
  /// fork child reports the error instead of aborting.
  ~Worker() {
    if (renewer_.joinable()) stop_renewal();
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  int run(int report_fd) {
    const Clock::time_point t0 = Clock::now();
    start_renewal();
    dispatch_loop();
    stop_renewal();
    shard_->sync();
    send_report(report_fd, seconds_since(t0));
    return 0;
  }

 private:
  void start_renewal() {
    renewer_ = std::thread([this] {
      const auto period =
          std::chrono::milliseconds(std::max(1, cfg_.lease_ms / 4));
      std::unique_lock<std::mutex> lk(stop_mu_);
      while (!stop_cv_.wait_for(lk, period, [this] { return stop_; })) {
        board_->renew_all();
      }
    });
  }

  void stop_renewal() {
    {
      std::lock_guard<std::mutex> lk(stop_mu_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    renewer_.join();
  }

  /// Claim rows until the whole grid is done (or, with stealing off,
  /// until nothing more is claimable).
  void dispatch_loop() {
    while (true) {
      bool any_held = false;
      bool claimed_any = false;
      for (std::size_t i = 0; i < plan_.rows().size(); ++i) {
        const std::string token = plan_.row_token(i);
        const ClaimOutcome oc = board_->try_claim(token, cfg_.steal);
        if (oc == ClaimOutcome::kDone) {
          continue;
        }
        if (oc == ClaimOutcome::kHeld) {
          any_held = true;
          continue;
        }
        claimed_any = true;
        run_row(i);
        board_->mark_done(token);
        board_->release(token);
      }
      if (!any_held) {
        return;  // every row is done
      }
      if (claimed_any) {
        continue;  // made progress; re-scan immediately
      }
      if (!cfg_.steal) {
        return;  // held rows remain but we may not take them over
      }
      // Held rows, nothing claimable yet: wait for a .done marker or a
      // lease expiry.  Bounded by the lease (a dead owner expires).
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min(cfg_.lease_ms / 4, 100)));
    }
  }

  /// Runs every not-yet-checkpointed cell of one claimed row.
  void run_row(std::size_t row_index) {
    const PlanRow& row = plan_.rows()[row_index];
    dse::Evaluator eval(row.settings);
    const store::WarmStartStats warm =
        store::warm_start(eval, *shard_, plan_.spec().robust.realizations);
    HI_REQUIRE(warm.settings_fp == row.settings_fp,
               "plan/settings fingerprint drift on row '" << row.name << "'");
    // Cross-shard rescan: everything any other worker (this run or a
    // crashed previous one) already paid for is reused, not re-run.
    std::set<store::CellKey> foreign_cells;
    for (const std::string& other : list_shards(cfg_.shard_dir)) {
      if (other == shard_->path()) {
        continue;
      }
      preload_foreign(other, eval, row.settings_fp, foreign_cells);
    }
    struct ::stat st{};
    if (::stat(merged_path(cfg_.shard_dir).c_str(), &st) == 0) {
      // A previous run's merge survives shard compaction/cleanup.
      preload_foreign(merged_path(cfg_.shard_dir), eval, row.settings_fp,
                      foreign_cells);
    }
    for (const store::CellKey& key : row.cells) {
      metrics_.counter("campaign.cells_claimed").add(1);
      if (shard_->find_cell(key) || foreign_cells.count(key) > 0) {
        ++cells_skipped_;
        continue;
      }
      dse::ExplorationOptions run_opt = plan_.cell_options(key.pdr_min);
      run_opt.metrics = &metrics_;
      const dse::ExplorationResult res =
          dse::explore(plan_.explorer(), row.scenario, eval, run_opt);
      shard_->put_cell(key, to_cell_result(res));
      ++cells_done_;
      fresh_sims_ += res.simulations;
      store_hits_ += res.metrics.counter("dse.store_hits");
      if (cfg_.kill_slot == slot_ && cells_done_ >= cfg_.kill_after_cells) {
        // Fault-injection hook: die the way a crashed worker dies —
        // checkpoint durable, claim unreleased, no report.
        ::raise(SIGKILL);
      }
      if (cfg_.cell_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg_.cell_delay_ms));
      }
    }
  }

  void preload_foreign(const std::string& path, dse::Evaluator& eval,
                       const store::Digest& settings_fp,
                       std::set<store::CellKey>& cells) const {
    store::StoreOptions ro;
    ro.read_only = true;
    ro.channel_tag = plan_.spec().channel_tag;
    const store::EvalStore other(path, ro);
    other.preload_into(eval, settings_fp);
    // Realization children carry distinct channel seeds, so their rows
    // live under their own settings fingerprints.
    for (int k = 1; k < plan_.spec().robust.realizations; ++k) {
      dse::Evaluator& child = eval.realization(k);
      other.preload_into(
          child, store::settings_fingerprint(child.settings(),
                                             plan_.spec().channel_tag));
    }
    other.for_each_cell(
        [&cells](const store::CellKey& key, const store::CellResult&) {
          cells.insert(key);
        });
  }

  void send_report(int fd, double wall_s) const {
    WorkerReport rep;
    rep.slot = slot_;
    rep.pid = static_cast<std::int32_t>(::getpid());
    rep.rows_claimed = board_->tally().rows_claimed;
    rep.steals = board_->tally().steals;
    rep.recoveries = board_->tally().recoveries;
    rep.lease_expiries = board_->tally().lease_expiries;
    rep.cells_done = cells_done_;
    rep.cells_skipped = cells_skipped_;
    rep.fresh_simulations = fresh_sims_;
    rep.store_hits = store_hits_;
    rep.wall_s = wall_s;
    const std::string bytes = rep.encode();
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      if (n <= 0) {
        return;  // parent gone; nothing useful left to do
      }
      written += static_cast<std::size_t>(n);
    }
  }

  const CampaignPlan& plan_;
  const RunConfig& cfg_;
  int slot_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<store::EvalStore> shard_;
  std::unique_ptr<ClaimBoard> board_;
  std::thread renewer_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::uint64_t cells_done_ = 0;
  std::uint64_t cells_skipped_ = 0;
  std::uint64_t fresh_sims_ = 0;
  std::uint64_t store_hits_ = 0;
};

std::uint64_t make_run_id() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return (static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
          static_cast<std::uint64_t>(ts.tv_nsec)) ^
         (static_cast<std::uint64_t>(::getpid()) << 48);
}

/// Reads `fd` to EOF (the worker has exited; the report fits the pipe
/// buffer, so this never blocks a live writer).
std::string drain_pipe(int fd) {
  std::string out;
  char buf[512];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) {
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

}  // namespace

std::string shard_path(const std::string& dir, int slot) {
  return dir + "/shard-" + std::to_string(slot) + ".store";
}

std::string merged_path(const std::string& dir) {
  return dir + "/merged.store";
}

std::string claims_dir(const std::string& dir) { return dir + "/claims"; }

std::string worker_pid_path(const std::string& dir, int slot) {
  return dir + "/worker-" + std::to_string(slot) + ".pid";
}

std::string fleet_json_path(const std::string& dir) {
  return dir + "/fleet.json";
}

std::vector<std::string> list_shards(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return out;
  }
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() >= 13 && name.rfind("shard-", 0) == 0 &&
        name.compare(name.size() - 6, 6, ".store") == 0) {
      out.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

CampaignReport run_single(const CampaignPlan& plan, const RunConfig& cfg,
                          obs::MetricsRegistry* metrics) {
  HI_REQUIRE(!cfg.store_path.empty(), "run_single needs a store path");
  store::StoreOptions sopt;
  sopt.fsync = cfg.fsync;
  sopt.channel_tag = plan.spec().channel_tag;
  sopt.metrics = metrics;
  store::EvalStore store(cfg.store_path, sopt);
  print_recovery_warning(cfg, store);

  CampaignReport report;
  report.store_path = store.path();
  report.recovery = store.recovery();
  for (const PlanRow& row : plan.rows()) {
    dse::Evaluator eval(row.settings);
    const store::WarmStartStats warm =
        store::warm_start(eval, store, plan.spec().robust.realizations);
    HI_REQUIRE(warm.settings_fp == row.settings_fp,
               "plan/settings fingerprint drift on row '" << row.name << "'");
    for (const store::CellKey& key : row.cells) {
      CellReport cell;
      cell.scenario = row.name;
      cell.pdr_min = key.pdr_min;
      if (cfg.resume) {
        if (const auto done = store.find_cell(key)) {
          cell.skipped = true;
          cell.result = *done;
          report.cells.push_back(std::move(cell));
          continue;
        }
      }
      dse::ExplorationOptions run_opt = plan.cell_options(key.pdr_min);
      run_opt.metrics = metrics;
      const dse::ExplorationResult res =
          dse::explore(plan.explorer(), row.scenario, eval, run_opt);
      cell.result = to_cell_result(res);
      cell.store_hits = res.metrics.counter("dse.store_hits");
      store.put_cell(key, cell.result);  // fsynced checkpoint
      report.cells.push_back(std::move(cell));
      if (cfg.cell_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg.cell_delay_ms));
      }
    }
  }
  report.stored_evals = store.eval_count();
  report.stored_cells = store.cell_count();
  return report;
}

FleetReport run_fleet(const CampaignPlan& plan, const RunConfig& cfg,
                      obs::MetricsRegistry* metrics) {
  HI_REQUIRE(cfg.workers >= 1, "run_fleet needs at least one worker");
  HI_REQUIRE(!cfg.shard_dir.empty(), "run_fleet needs a campaign directory");
  mkdir_or_exist(cfg.shard_dir);
  mkdir_or_exist(claims_dir(cfg.shard_dir));
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t run_id = make_run_id();

  // Fork the fleet.  The parent is single-threaded here, so each child
  // starts from a clean slate (its renewal thread is created post-fork).
  std::vector<pid_t> pids(static_cast<std::size_t>(cfg.workers), -1);
  std::vector<int> report_fds(static_cast<std::size_t>(cfg.workers), -1);
  for (int slot = 0; slot < cfg.workers; ++slot) {
    int fds[2];
    HI_REQUIRE(::pipe(fds) == 0,
               "worker pipe failed: " << std::strerror(errno));
    const pid_t pid = ::fork();
    HI_REQUIRE(pid >= 0, "worker fork failed: " << std::strerror(errno));
    if (pid == 0) {
      // Child: drop the parent ends, run the worker, never return.
      ::signal(SIGPIPE, SIG_IGN);  // a dead parent must not kill the work
      ::close(fds[0]);
      for (int f : report_fds) {
        if (f >= 0) {
          ::close(f);
        }
      }
      int code = 1;
      try {
        Worker worker(plan, cfg, slot, run_id);
        code = worker.run(fds[1]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "worker %d: %s\n", slot, e.what());
      }
      ::close(fds[1]);
      ::_exit(code);
    }
    ::close(fds[1]);
    report_fds[static_cast<std::size_t>(slot)] = fds[0];
    pids[static_cast<std::size_t>(slot)] = pid;
    // Pid file: how tests (and operators) address one worker to kill.
    std::ofstream pidf(worker_pid_path(cfg.shard_dir, slot));
    pidf << pid << "\n";
  }

  // Reap promptly and in any order: a SIGKILLed worker must turn into
  // ESRCH fast so the survivors' pid-death staleness check fires before
  // the lease expires.
  FleetReport fleet;
  fleet.shard_dir = cfg.shard_dir;
  fleet.merged_path = merged_path(cfg.shard_dir);
  fleet.run_id = run_id;
  fleet.workers = cfg.workers;
  fleet.worker_reports.resize(static_cast<std::size_t>(cfg.workers));
  for (int remaining = cfg.workers; remaining > 0; --remaining) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    HI_REQUIRE(pid > 0, "waitpid failed: " << std::strerror(errno));
    for (int slot = 0; slot < cfg.workers; ++slot) {
      if (pids[static_cast<std::size_t>(slot)] != pid) {
        continue;
      }
      WorkerReport& rep = fleet.worker_reports[static_cast<std::size_t>(slot)];
      rep.slot = slot;
      rep.pid = static_cast<std::int32_t>(pid);
      if (WIFEXITED(status)) {
        rep.exit_code = WEXITSTATUS(status);
      } else if (WIFSIGNALED(status)) {
        rep.term_signal = WTERMSIG(status);
      }
      break;
    }
  }
  for (int slot = 0; slot < cfg.workers; ++slot) {
    const int fd = report_fds[static_cast<std::size_t>(slot)];
    const std::string bytes = drain_pipe(fd);
    ::close(fd);
    WorkerReport& rep = fleet.worker_reports[static_cast<std::size_t>(slot)];
    WorkerReport decoded;
    if (WorkerReport::decode(bytes, &decoded)) {
      decoded.exit_code = rep.exit_code;
      decoded.term_signal = rep.term_signal;
      rep = decoded;  // a killed worker leaves rep.reported == false
    }
  }

  // Fold every shard into the canonical store and audit the plan
  // against it: complete == every planned cell is checkpointed.
  fleet.merge = store::EvalStore::merge(list_shards(cfg.shard_dir),
                                        fleet.merged_path);
  if (metrics != nullptr) {
    metrics->counter("campaign.merge_frames").add(fleet.merge.frames);
  }
  store::StoreOptions ro;
  ro.read_only = true;
  ro.channel_tag = plan.spec().channel_tag;
  const store::EvalStore merged(fleet.merged_path, ro);
  fleet.planned_cells = plan.cell_count();
  for (const PlanRow& row : plan.rows()) {
    for (const store::CellKey& key : row.cells) {
      if (merged.find_cell(key)) {
        ++fleet.checkpointed_cells;
      }
    }
  }
  fleet.complete = fleet.checkpointed_cells == fleet.planned_cells;
  fleet.wall_s = seconds_since(t0);

  std::ofstream json(fleet_json_path(cfg.shard_dir));
  json << fleet.to_json();
  return fleet;
}

}  // namespace hi::campaign
