// Child process for crash_recovery_test: opens the durable store over
// <data_dir> with a RefreshManager, recovers, registers four columns on a
// cold start, then churns delta batches across them forever, bumping an
// "attempted" counter file BEFORE each RecordBatch and an "acked" one
// AFTER it returns OK — until the parent SIGKILLs it mid-stride. The
// parent then proves the WAL holds every acked record:
//
//   acked <= replayed delta records <= attempted
//
// Counters are plain 8-byte little-endian pwrites at offset 0; like the
// WAL itself they survive a process kill via the page cache, so the parent
// reads a consistent "how far did it get" even though the child never
// fsyncs them.
//
// Usage: storage_crash_child <data_dir> <counter_dir>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "refresh/refresh_manager.h"
#include "storage/recovery.h"

namespace {

int OpenCounter(const std::string& path, uint64_t* initial) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    std::perror("open counter");
    std::exit(2);
  }
  uint64_t value = 0;
  if (::pread(fd, &value, sizeof(value), 0) == sizeof(value)) {
    *initial = value;
  }
  return fd;
}

void WriteCounter(int fd, uint64_t value) {
  if (::pwrite(fd, &value, sizeof(value), 0) != sizeof(value)) {
    std::perror("pwrite counter");
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <data_dir> <counter_dir>\n", argv[0]);
    return 2;
  }
  const std::string data_dir = argv[1];
  const std::string counter_dir = argv[2];

  // Counters continue across restarts, like the WAL they mirror.
  uint64_t attempted = 0;
  uint64_t acked = 0;
  const int attempted_fd = OpenCounter(counter_dir + "/attempted", &attempted);
  const int acked_fd = OpenCounter(counter_dir + "/acked", &acked);

  hops::Catalog catalog;
  hops::SnapshotStore store;
  hops::RefreshManager manager(&catalog, &store);

  hops::storage::StorageOptions options;
  options.data_dir = data_dir;
  options.durability = hops::storage::WalFsync::kNone;  // kill(2)-safe anyway
  auto opened = hops::storage::RecoveryManager::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n",
                 std::string(opened.status().message()).c_str());
    return 2;
  }
  std::unique_ptr<hops::storage::RecoveryManager> durable =
      std::move(opened).ValueOrDie();
  if (hops::Status status = durable->RecoverAndAttach(&manager);
      !status.ok()) {
    std::fprintf(stderr, "recover: %s\n",
                 std::string(status.message()).c_str());
    return 2;
  }

  constexpr int kColumns = 4;
  if (manager.num_columns() == 0) {
    std::vector<int64_t> values(64);
    std::vector<double> freqs(64, 25.0);
    for (int i = 0; i < 64; ++i) values[i] = i;
    for (int c = 0; c < kColumns; ++c) {
      auto id = manager.RegisterColumn("orders", "c" + std::to_string(c),
                                       values, freqs);
      if (!id.ok()) {
        std::fprintf(stderr, "register: %s\n",
                     std::string(id.status().message()).c_str());
        return 2;
      }
    }
  }
  std::vector<hops::RefreshColumnId> columns;
  for (int c = 0; c < kColumns; ++c) {
    columns.push_back(
        manager.Lookup("orders", "c" + std::to_string(c)).ValueOrDie());
  }

  // Tell the parent we are past recovery and churning; it kills us only
  // after this so every run makes forward progress.
  std::printf("churning\n");
  std::fflush(stdout);

  for (uint64_t batch = 0;; ++batch) {
    std::vector<hops::UpdateRecord> records(8);
    for (size_t i = 0; i < records.size(); ++i) {
      records[i].column = columns[(attempted + i) % columns.size()];
      records[i].value = static_cast<int64_t>((attempted + i) % 64);
      records[i].weight = (i % 5 == 4) ? -1.0 : +1.0;
    }
    attempted += records.size();
    WriteCounter(attempted_fd, attempted);
    if (hops::Status status = manager.RecordBatch(records); !status.ok()) {
      // Backpressure would break the counter invariant; drain and keep the
      // attempted counter honest by not acking.
      (void)manager.ApplyPendingDeltas();
      continue;
    }
    acked += records.size();
    WriteCounter(acked_fd, acked);
    if (batch % 64 == 63) (void)manager.ApplyPendingDeltas();
  }
}
