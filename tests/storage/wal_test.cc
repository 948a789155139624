// WAL writer/replay (src/storage/wal.h): LSN stamping, frame round trips,
// segment rotation and retirement, min_lsn segment skipping, torn-tail
// truncation, and the reopen-after-clean-shutdown path. Byte-level
// corruption is walked exhaustively by corruption_matrix_test.cc.

#include "storage/wal.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace hops::storage {
namespace {

std::string MakeTempDir(const std::string& tag) {
  std::string templ = ::testing::TempDir() + "hops_" + tag + "_XXXXXX";
  const char* dir = ::mkdtemp(templ.data());
  EXPECT_NE(dir, nullptr);
  return templ;
}

std::vector<UpdateRecord> MakeDeltas(size_t n, RefreshColumnId column) {
  std::vector<UpdateRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].column = column;
    records[i].value = static_cast<int64_t>(i) - 2;
    records[i].weight = (i % 2 == 0) ? +1.0 : -0.5;
  }
  return records;
}

struct Replayed {
  std::vector<WalDeltaBatch> batches;
  std::vector<WalRegistration> registrations;
};

Result<WalReplayReport> Replay(const std::string& dir, uint64_t min_lsn,
                               Replayed* out) {
  return ReplayWalDir(
      dir, min_lsn,
      [out](const WalDeltaBatch& batch) {
        out->batches.push_back(batch);
        return Status::OK();
      },
      [out](const WalRegistration& reg) {
        out->registrations.push_back(reg);
        return Status::OK();
      });
}

TEST(WalSegmentFileNameTest, RoundTrips) {
  EXPECT_EQ(WalSegmentFileName(1), "wal-0000000000000001.wal");
  uint64_t lsn = 0;
  EXPECT_TRUE(ParseWalSegmentFileName(WalSegmentFileName(0xABCDu), &lsn));
  EXPECT_EQ(lsn, 0xABCDu);
  EXPECT_FALSE(ParseWalSegmentFileName("wal-1.wal", &lsn));
  EXPECT_FALSE(
      ParseWalSegmentFileName("snapshot-0000000000000001.hsnp", &lsn));
}

TEST(WalWriterTest, StampsLsnsAndReplaysInOrder) {
  const std::string dir = MakeTempDir("wal");
  {
    auto writer = WalWriter::Open(dir, /*next_lsn=*/0);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    uint64_t reg_lsn = 0;
    std::vector<int64_t> values = {1, 2, 3};
    std::vector<double> freqs = {4.0, 5.5, 6.25};
    ASSERT_TRUE((*writer)
                    ->AppendRegistration(0, "orders", "customer_id", values,
                                         freqs, &reg_lsn)
                    .ok());
    EXPECT_EQ(reg_lsn, 1u);  // LSN 0 means "not persisted"; writer clamps

    std::vector<UpdateRecord> deltas = MakeDeltas(3, 0);
    ASSERT_TRUE((*writer)->AppendDeltas(deltas).ok());
    EXPECT_EQ(deltas[0].lsn, 2u);  // stamped in place
    EXPECT_EQ(deltas[2].lsn, 4u);
    EXPECT_EQ((*writer)->next_lsn(), 5u);

    const WalWriterStats stats = (*writer)->stats();
    EXPECT_EQ(stats.records_appended, 4u);
    EXPECT_EQ(stats.frames_appended, 2u);
    EXPECT_EQ(stats.segments_created, 1u);
  }

  Replayed replayed;
  Result<WalReplayReport> report = Replay(dir, 0, &replayed);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->segments_scanned, 1u);
  EXPECT_EQ(report->registrations, 1u);
  EXPECT_EQ(report->delta_records, 3u);
  EXPECT_EQ(report->max_lsn, 4u);
  EXPECT_FALSE(report->torn_tail_truncated);

  ASSERT_EQ(replayed.registrations.size(), 1u);
  const WalRegistration& reg = replayed.registrations[0];
  EXPECT_EQ(reg.lsn, 1u);
  EXPECT_EQ(reg.table, "orders");
  EXPECT_EQ(reg.column, "customer_id");
  EXPECT_EQ(reg.values, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(reg.frequencies, (std::vector<double>{4.0, 5.5, 6.25}));

  ASSERT_EQ(replayed.batches.size(), 1u);
  const WalDeltaBatch& batch = replayed.batches[0];
  EXPECT_EQ(batch.first_lsn, 2u);
  ASSERT_EQ(batch.records.size(), 3u);
  EXPECT_EQ(batch.records[1].value, -1);
  EXPECT_EQ(batch.records[1].weight, -0.5);
  EXPECT_EQ(batch.records[1].lsn, 3u);
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

// A segment's bytes are what replay reads after a crash: pin the header and
// one frame of each type (all integers little-endian).
TEST(WalWriterTest, SegmentBytesArePinned) {
  const std::string dir = MakeTempDir("walbytes");
  {
    auto writer = WalWriter::Open(dir, /*next_lsn=*/1);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    const std::vector<int64_t> values = {1, -2};
    const std::vector<double> freqs = {4.0, 0.5};
    ASSERT_TRUE((*writer)
                    ->AppendRegistration(3, "t", "c", values, freqs, nullptr)
                    .ok());
    std::vector<UpdateRecord> deltas = MakeDeltas(2, 3);
    ASSERT_TRUE((*writer)->AppendDeltas(deltas).ok());
  }
  std::ifstream in(dir + "/" + WalSegmentFileName(1), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(Hex(bytes),
            "4857414c"          // magic "HWAL"
            "01000000"          // version 1
            "0100000000000000"  // first LSN 1
            "6dd4547e"          // header CRC32C
            "00000000"          // padding
            "42000000"          // frame payload length 66
            "cd6c9724"          // payload CRC32C
            "02000000"          // type 2: registration
            "03000000"          // column id 3
            "0100000000000000"  // LSN 1
            "01000000"          // table length
            "01000000"          // column length
            "0200000000000000"  // value count
            "74"                // "t"
            "63"                // "c"
            "0100000000000000"  // value 1
            "feffffffffffffff"  // value -2
            "0000000000001040"  // frequency 4.0
            "000000000000e03f"  // frequency 0.5
            "38000000"          // frame payload length 56
            "ac46f7f0"          // payload CRC32C
            "01000000"          // type 1: delta batch
            "02000000"          // record count
            "0200000000000000"  // first LSN 2
            "03000000"          // column id 3
            "feffffffffffffff"  // value -2
            "000000000000f03f"  // weight +1.0
            "03000000"          // column id 3
            "ffffffffffffffff"  // value -1
            "000000000000e0bf"  // weight -0.5
  );
}

TEST(WalWriterTest, RotateCutsSegmentsAndMinLsnSkipsCoveredOnes) {
  const std::string dir = MakeTempDir("walrot");
  auto writer = WalWriter::Open(dir, 1);
  ASSERT_TRUE(writer.ok());
  std::vector<UpdateRecord> first = MakeDeltas(4, 0);   // LSNs 1..4
  ASSERT_TRUE((*writer)->AppendDeltas(first).ok());
  ASSERT_TRUE((*writer)->Rotate().ok());
  std::vector<UpdateRecord> second = MakeDeltas(2, 1);  // LSNs 5..6
  ASSERT_TRUE((*writer)->AppendDeltas(second).ok());

  // min_lsn=4 covers the whole first segment (successor starts at 5 <= 4+1):
  // it is skipped without reading.
  Replayed replayed;
  Result<WalReplayReport> report = Replay(dir, /*min_lsn=*/4, &replayed);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->segments_skipped, 1u);
  EXPECT_EQ(report->segments_scanned, 1u);
  EXPECT_EQ(report->delta_records, 2u);
  ASSERT_EQ(replayed.batches.size(), 1u);
  EXPECT_EQ(replayed.batches[0].first_lsn, 5u);

  // min_lsn=3 does NOT cover it; both segments replay.
  Replayed all;
  report = Replay(dir, /*min_lsn=*/3, &all);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->segments_skipped, 0u);
  EXPECT_EQ(report->delta_records, 6u);
}

TEST(WalWriterTest, RetireThroughSparesActiveAndUncoveredSegments) {
  const std::string dir = MakeTempDir("walret");
  auto writer = WalWriter::Open(dir, 1);
  ASSERT_TRUE(writer.ok());
  std::vector<UpdateRecord> a = MakeDeltas(4, 0);  // segment 1: LSNs 1..4
  ASSERT_TRUE((*writer)->AppendDeltas(a).ok());
  ASSERT_TRUE((*writer)->Rotate().ok());
  std::vector<UpdateRecord> b = MakeDeltas(4, 0);  // segment 5: LSNs 5..8
  ASSERT_TRUE((*writer)->AppendDeltas(b).ok());
  ASSERT_TRUE((*writer)->Rotate().ok());
  std::vector<UpdateRecord> c = MakeDeltas(1, 0);  // segment 9 (active)
  ASSERT_TRUE((*writer)->AppendDeltas(c).ok());

  // LSN 3 covers no whole segment; LSN 4 covers exactly segment 1.
  Result<size_t> retired = (*writer)->RetireThrough(3);
  ASSERT_TRUE(retired.ok());
  EXPECT_EQ(*retired, 0u);
  retired = (*writer)->RetireThrough(4);
  ASSERT_TRUE(retired.ok());
  EXPECT_EQ(*retired, 1u);
  {
    Replayed replayed;
    Result<WalReplayReport> report = Replay(dir, 0, &replayed);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->delta_records, 5u);  // segments 5 and 9 remain
  }
  // LSN 100 covers everything, but the active segment never retires.
  retired = (*writer)->RetireThrough(100);
  ASSERT_TRUE(retired.ok());
  EXPECT_EQ(*retired, 1u);
  Replayed replayed;
  Result<WalReplayReport> report = Replay(dir, 0, &replayed);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->delta_records, 1u);  // only the active segment remains
}

// Regression: rotating a frameless active segment must not collide with
// itself (it IS the rotation target), and reopening a directory whose last
// segment is the header-only leftover of a clean shutdown must succeed.
TEST(WalWriterTest, EmptySegmentRotateAndReopenAreSafe) {
  const std::string dir = MakeTempDir("walempty");
  {
    auto writer = WalWriter::Open(dir, 1);
    ASSERT_TRUE(writer.ok());
    std::vector<UpdateRecord> a = MakeDeltas(2, 0);  // LSNs 1..2
    ASSERT_TRUE((*writer)->AppendDeltas(a).ok());
    ASSERT_TRUE((*writer)->Rotate().ok());  // opens frameless wal-3
    ASSERT_TRUE((*writer)->Rotate().ok());  // no-op, must not fail
    EXPECT_EQ((*writer)->stats().segments_created, 2u);
  }
  {
    // Replay sees 2 records; reopen at next_lsn=3 replaces the header-only
    // leftover segment instead of failing O_EXCL.
    Replayed replayed;
    Result<WalReplayReport> report = Replay(dir, 0, &replayed);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_EQ(report->delta_records, 2u);
    EXPECT_EQ(report->max_lsn, 2u);

    auto writer = WalWriter::Open(dir, 3);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    std::vector<UpdateRecord> b = MakeDeltas(1, 0);
    ASSERT_TRUE((*writer)->AppendDeltas(b).ok());
    EXPECT_EQ(b[0].lsn, 3u);
  }
  Replayed replayed;
  Result<WalReplayReport> report = Replay(dir, 0, &replayed);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->delta_records, 3u);
}

TEST(WalWriterTest, SizeTriggeredRotationSplitsSegments) {
  const std::string dir = MakeTempDir("walsize");
  WalOptions options;
  options.fsync = WalFsync::kNone;
  options.segment_bytes = 256;  // tiny: a few batches per segment
  auto writer = WalWriter::Open(dir, 1, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 20; ++i) {
    std::vector<UpdateRecord> batch = MakeDeltas(3, 0);
    ASSERT_TRUE((*writer)->AppendDeltas(batch).ok());
  }
  EXPECT_GT((*writer)->stats().segments_created, 2u);

  Replayed replayed;
  Result<WalReplayReport> report = Replay(dir, 0, &replayed);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->delta_records, 60u);
  EXPECT_EQ(report->max_lsn, 60u);
  // Frames arrive in LSN order across the segment boundary.
  uint64_t last = 0;
  for (const WalDeltaBatch& batch : replayed.batches) {
    EXPECT_GT(batch.first_lsn, last);
    last = batch.first_lsn;
  }
}

TEST(WalReplayTest, TornTailOfLastSegmentIsTruncatedOnceThenClean) {
  const std::string dir = MakeTempDir("waltear");
  {
    auto writer = WalWriter::Open(dir, 1);
    ASSERT_TRUE(writer.ok());
    std::vector<UpdateRecord> a = MakeDeltas(3, 0);
    ASSERT_TRUE((*writer)->AppendDeltas(a).ok());
    std::vector<UpdateRecord> b = MakeDeltas(3, 0);
    ASSERT_TRUE((*writer)->AppendDeltas(b).ok());
  }
  // Tear the last few bytes of the final frame (crash mid-write).
  const std::string path = dir + "/" + WalSegmentFileName(1);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(bytes.size() - 5)),
            0);

  Replayed replayed;
  Result<WalReplayReport> report = Replay(dir, 0, &replayed);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->torn_tail_truncated);
  EXPECT_EQ(report->delta_records, 3u);  // the acknowledged first batch

  // The tear was truncated away: the next replay is clean.
  Replayed again;
  report = Replay(dir, 0, &again);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->torn_tail_truncated);
  EXPECT_EQ(report->delta_records, 3u);
}

TEST(WalReplayTest, CorruptionInNonLastSegmentIsAnError) {
  const std::string dir = MakeTempDir("walmid");
  {
    auto writer = WalWriter::Open(dir, 1);
    ASSERT_TRUE(writer.ok());
    std::vector<UpdateRecord> a = MakeDeltas(3, 0);
    ASSERT_TRUE((*writer)->AppendDeltas(a).ok());
    ASSERT_TRUE((*writer)->Rotate().ok());
    std::vector<UpdateRecord> b = MakeDeltas(3, 0);
    ASSERT_TRUE((*writer)->AppendDeltas(b).ok());
  }
  // Flip one payload byte in the FIRST (non-last) segment: that is silent
  // data loss territory, so replay must fail loudly, not skip.
  const std::string path = dir + "/" + WalSegmentFileName(1);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(40);
  char byte = 0;
  file.seekg(40);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  file.seekp(40);
  file.write(&byte, 1);
  file.close();

  Replayed replayed;
  Result<WalReplayReport> report = Replay(dir, 0, &replayed);
  EXPECT_FALSE(report.ok());
}

TEST(WalReplayTest, HandlerErrorAbortsReplay) {
  const std::string dir = MakeTempDir("walerr");
  {
    auto writer = WalWriter::Open(dir, 1);
    ASSERT_TRUE(writer.ok());
    std::vector<UpdateRecord> a = MakeDeltas(2, 0);
    ASSERT_TRUE((*writer)->AppendDeltas(a).ok());
  }
  Result<WalReplayReport> report = ReplayWalDir(
      dir, 0,
      [](const WalDeltaBatch&) { return Status::Internal("handler refuses"); },
      nullptr);
  EXPECT_FALSE(report.ok());
}

TEST(WalReplayTest, EmptyDirReplaysNothing) {
  const std::string dir = MakeTempDir("walnone");
  Replayed replayed;
  Result<WalReplayReport> report = Replay(dir, 0, &replayed);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->segments_scanned, 0u);
  EXPECT_EQ(report->max_lsn, 0u);
}

}  // namespace
}  // namespace hops::storage
