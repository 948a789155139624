// The crash-recovery proof: a real child process (storage_crash_child.cc,
// path injected via HOPS_CRASH_CHILD_PATH) churns delta batches across four
// columns of a durable store and is SIGKILLed mid-stride — twice, so the
// second run also exercises recover-then-keep-writing. After every kill the
// parent recovers in-process and checks the write-ahead invariant:
//
//   acked <= WAL delta records replayed <= attempted
//
// i.e. nothing the child was told succeeded is ever lost, and nothing is
// invented. The child's counter files are page-cache-backed just like the
// WAL, so they survive the kill with the same guarantee under test.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "refresh/refresh_manager.h"
#include "storage/recovery.h"

#ifndef HOPS_CRASH_CHILD_PATH
#error "build must define HOPS_CRASH_CHILD_PATH"
#endif

namespace hops::storage {
namespace {

std::string MakeTempDir(const std::string& tag) {
  std::string templ = ::testing::TempDir() + "hops_" + tag + "_XXXXXX";
  const char* dir = ::mkdtemp(templ.data());
  EXPECT_NE(dir, nullptr);
  return templ;
}

uint64_t ReadCounter(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  uint64_t value = 0;
  if (std::fread(&value, sizeof(value), 1, f) != 1) value = 0;
  std::fclose(f);
  return value;
}

// Runs the child until it prints "churning", lets it write for a while,
// then SIGKILLs it mid-stride and reaps it.
void RunChildAndKill(const std::string& data_dir,
                     const std::string& counter_dir, useconds_t churn_usec) {
  int out[2];
  ASSERT_EQ(::pipe(out), 0);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(out[0]);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[1]);
    ::execl(HOPS_CRASH_CHILD_PATH, HOPS_CRASH_CHILD_PATH, data_dir.c_str(),
            counter_dir.c_str(), static_cast<char*>(nullptr));
    std::perror("execl");
    ::_exit(127);
  }
  ::close(out[1]);

  // Wait for the ready line so the kill always lands mid-churn, never
  // mid-recovery.
  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos &&
         ::read(out[0], &c, 1) == 1) {
    banner.push_back(c);
  }
  ::close(out[0]);
  ASSERT_NE(banner.find("churning"), std::string::npos)
      << "child never came up: " << banner;

  ::usleep(churn_usec);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
}

constexpr size_t kChildColumns = 4;

// Recovers the store into a fresh manager and returns the report.
RecoveryReport RecoverFresh(const std::string& data_dir) {
  Catalog catalog;
  SnapshotStore store;
  RefreshManager manager(&catalog, &store);

  StorageOptions options;
  options.data_dir = data_dir;
  auto opened = RecoveryManager::Open(options);
  EXPECT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<RecoveryManager> durable = std::move(opened).ValueOrDie();
  const Status recovered = durable->RecoverAndAttach(&manager);
  EXPECT_TRUE(recovered.ok()) << recovered.message();
  EXPECT_EQ(manager.num_columns(), kChildColumns);
  return durable->report();
}

TEST(CrashRecovery, SigkillMidChurnLosesNoAckedRecordsAcrossTwoCycles) {
  const std::string data_dir = MakeTempDir("crashdata");
  const std::string counter_dir = MakeTempDir("crashcount");

  uint64_t previous_replayed = 0;
  for (int cycle = 0; cycle < 2; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    RunChildAndKill(data_dir, counter_dir, /*churn_usec=*/200 * 1000);

    const uint64_t attempted = ReadCounter(counter_dir + "/attempted");
    const uint64_t acked = ReadCounter(counter_dir + "/acked");
    ASSERT_GT(acked, 0u) << "child made no progress";
    ASSERT_GE(attempted, acked);

    const RecoveryReport report = RecoverFresh(data_dir);
    // No snapshot was ever written, so the replay count is the cumulative
    // record count — directly comparable to the cumulative counters.
    EXPECT_FALSE(report.snapshot_loaded);
    EXPECT_EQ(report.wal_registrations, kChildColumns);
    EXPECT_GE(report.wal_delta_records, acked)
        << "acked records lost after kill -9";
    EXPECT_LE(report.wal_delta_records, attempted)
        << "replay invented records";
    EXPECT_GE(report.wal_delta_records, previous_replayed)
        << "second run lost the first run's records";
    previous_replayed = report.wal_delta_records;
  }
}

}  // namespace
}  // namespace hops::storage
