// End-to-end crash-safety of the hi_campaign CLI: SIGKILL mid-grid,
// then --resume must skip every checkpointed cell (zero re-simulation)
// and leave a store the corruption auditor calls byte-valid, holding
// exactly the evaluations a cold uninterrupted run pays for — on a
// nominal grid and on a robust one (one record per design and
// realization).
//
// The campaign binary's path arrives via the HI_CAMPAIGN_BIN compile
// definition (tests/CMakeLists.txt); the child's stdout is captured to a
// file so the JSON report can be asserted on.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "store/store.hpp"

namespace {

using namespace hi;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

std::size_t count_occurrences(const std::string& hay, const std::string& pin) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(pin); at != std::string::npos;
       at = hay.find(pin, at + pin.size())) {
    ++n;
  }
  return n;
}

/// fork/exec the campaign binary with stdout redirected to `out_path`.
/// Returns the child pid (the caller kills or waits).
pid_t spawn_campaign(const std::vector<std::string>& args,
                     const std::string& out_path) {
  std::vector<std::string> argv_s;
  argv_s.emplace_back(HI_CAMPAIGN_BIN);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(argv_s.size() + 1);
  for (std::string& s : argv_s) {
    argv.push_back(s.data());
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd =
        ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::close(fd);
    }
    ::execv(HI_CAMPAIGN_BIN, argv.data());
    _exit(127);  // exec failed
  }
  return pid;
}

int wait_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

/// Completed-cell count of the store right now, 0 if unreadable (the
/// child may not have created the file yet).
std::size_t cells_now(const std::string& store_path) {
  try {
    store::StoreOptions opt;
    opt.read_only = true;
    const store::EvalStore st(store_path, opt);
    return st.cell_count();
  } catch (const Error&) {
    return 0;
  }
}

std::size_t evals_in(const std::string& store_path) {
  store::StoreOptions opt;
  opt.read_only = true;
  return store::EvalStore(store_path, opt).eval_count();
}

std::vector<std::string> concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

const std::vector<std::string> kGrid = {"--gen-seed", "5", "--pdr-min",
                                        "0.5,0.7,0.9", "--json"};

TEST(CampaignResume, FullRunThenResumeSkipsEverythingWithZeroSims) {
  const std::string store_path = "campaign_full.store";
  const std::string out = "campaign_full.json";
  std::remove(store_path.c_str());

  std::vector<std::string> args = {"--store", store_path};
  args.insert(args.end(), kGrid.begin(), kGrid.end());
  ASSERT_EQ(wait_exit(spawn_campaign(args, out)), 0);
  const std::string first = read_file(out);
  EXPECT_EQ(count_occurrences(first, "\"skipped\": true"), 0u);

  args.push_back("--resume");
  ASSERT_EQ(wait_exit(spawn_campaign(args, out)), 0);
  const std::string resumed = read_file(out);
  EXPECT_EQ(count_occurrences(resumed, "\"skipped\": true"), 3u);
  EXPECT_NE(resumed.find("\"fresh_simulations\": 0"), std::string::npos)
      << resumed;
  EXPECT_TRUE(store::EvalStore::audit(store_path).clean());
  std::remove(store_path.c_str());
  std::remove(out.c_str());
}

TEST(CampaignResume, SigkillMidGridThenResumeFinishesCleanly) {
  struct Case {
    std::string tag;
    std::vector<std::string> extra;  ///< appended to kGrid
    int realizations;
  };
  const std::vector<Case> cases = {
      {"nominal", {}, 1},
      {"robust", {"--gamma", "1", "--realizations", "2"}, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.tag);
    const std::string store_path = "campaign_kill_" + c.tag + ".store";
    const std::string cold_path = "campaign_kill_" + c.tag + "_cold.store";
    const std::string out = "campaign_kill_" + c.tag + ".json";
    const std::vector<std::string> grid = concat(kGrid, c.extra);
    std::remove(store_path.c_str());
    std::remove(cold_path.c_str());

    // The uninterrupted reference run on the same grid.
    ASSERT_EQ(wait_exit(spawn_campaign(
                  concat({"--store", cold_path}, grid), out)),
              0);
    const std::size_t cold_evals = evals_in(cold_path);
    ASSERT_GT(cold_evals, 0u);

    // The delay widens the window between cells so the kill reliably
    // lands mid-grid (after >= 1 checkpoint, before the last).
    const pid_t pid = spawn_campaign(
        concat({"--store", store_path, "--cell-delay-ms", "10000"}, grid),
        out);
    ASSERT_GT(pid, 0);

    std::size_t checkpointed = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      checkpointed = cells_now(store_path);
      if (checkpointed >= 1) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid, SIGKILL);
    EXPECT_EQ(wait_exit(pid), -SIGKILL);
    ASSERT_GE(checkpointed, 1u) << "child never checkpointed a cell";
    ASSERT_LT(checkpointed, 3u) << "child finished before the kill";

    // The checkpoint fsync ordering guarantees the completed cells — and
    // every evaluation they depend on — survived the SIGKILL.
    EXPECT_GE(cells_now(store_path), checkpointed);

    // Resume: checkpointed cells are skipped outright (zero
    // re-simulation), the interrupted cell replays from the store, and
    // the repaired log audits byte-valid and holds exactly the cold
    // run's evaluations — none lost, none duplicated.
    const std::vector<std::string> resume_args =
        concat({"--store", store_path, "--resume"}, grid);
    ASSERT_EQ(wait_exit(spawn_campaign(resume_args, out)), 0);
    const std::string resumed = read_file(out);
    EXPECT_GE(count_occurrences(resumed, "\"skipped\": true"), checkpointed)
        << resumed;
    EXPECT_EQ(count_occurrences(resumed, "\"scenario\""), 3u) << resumed;
    EXPECT_TRUE(store::EvalStore::audit(store_path).clean());
    const std::size_t evals = evals_in(store_path);
    EXPECT_EQ(evals, cold_evals)
        << "kill/resume lost or duplicated evaluation records";
    // One record per design and realization.
    EXPECT_EQ(evals % static_cast<std::size_t>(c.realizations), 0u);

    // A second resume is a pure no-op: everything checkpointed, nothing
    // simulated, nothing appended.
    ASSERT_EQ(wait_exit(spawn_campaign(resume_args, out)), 0);
    const std::string again = read_file(out);
    EXPECT_EQ(count_occurrences(again, "\"skipped\": true"), 3u);
    EXPECT_NE(again.find("\"fresh_simulations\": 0"), std::string::npos);
    std::remove(store_path.c_str());
    std::remove(cold_path.c_str());
    std::remove(out.c_str());
  }
}

}  // namespace
