// Snapshot serialization (src/storage/snapshot_file.h): byte-level round
// trips of RefreshDurableState, file naming, crash-atomic write + read,
// header-only info, and directory listing order. Corruption rejection is
// covered exhaustively by corruption_matrix_test.cc.

#include "storage/snapshot_file.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "storage/io.h"

namespace hops::storage {
namespace {

std::string MakeTempDir(const std::string& tag) {
  std::string templ = ::testing::TempDir() + "hops_" + tag + "_XXXXXX";
  const char* dir = ::mkdtemp(templ.data());
  EXPECT_NE(dir, nullptr);
  return templ;
}

// Two columns with deliberately awkward doubles (non-dyadic fractions,
// negative weights, huge counters) so round-trip equality is a real
// bit-level check, plus one empty-ideal column and one empty-explicit one.
RefreshDurableState MakeState() {
  RefreshDurableState state;
  state.high_water_lsn = 0x1234567890ABCDEFull;

  ColumnDurableState a;
  a.table = "orders";
  a.column = "customer_id";
  a.explicit_values = {-5, 3, 1000000007};
  a.explicit_freqs = {0.1, 2.0 / 3.0, 123456.789};
  a.default_frequency = 1.0 / 7.0;
  a.num_default_values = 94;
  a.maintainer = {1234.5, 1000.25, 77, -0.125, 42, 17.5, true};
  a.ideal_values = {-5, 0, 3, 9};
  a.ideal_counts = {1.5, 0.0, 2.0 / 3.0, 8.0};
  a.tuples_at_build = 1000.25;
  a.min_value = -5;
  a.max_value = 1000000007;
  a.distinct = 97;
  a.feedback_ewma = 0.3333333333333333;
  a.has_feedback = true;
  a.deltas_since_rebuild = 12;
  a.rebuilds = 3;
  state.columns.push_back(a);

  ColumnDurableState b;
  b.table = "orders";
  b.column = "item_id";
  b.default_frequency = 4.25;
  b.num_default_values = 10;
  b.maintainer = {42.0, 42.0, 0, 0.0, 0, 0.0, false};
  b.tuples_at_build = 42.0;
  b.min_value = 0;
  b.max_value = 9;
  b.distinct = 10;
  state.columns.push_back(b);

  return state;
}

void ExpectStatesEqual(const RefreshDurableState& x,
                       const RefreshDurableState& y) {
  ASSERT_EQ(x.high_water_lsn, y.high_water_lsn);
  ASSERT_EQ(x.columns.size(), y.columns.size());
  for (size_t i = 0; i < x.columns.size(); ++i) {
    const ColumnDurableState& a = x.columns[i];
    const ColumnDurableState& b = y.columns[i];
    EXPECT_EQ(a.table, b.table);
    EXPECT_EQ(a.column, b.column);
    EXPECT_EQ(a.explicit_values, b.explicit_values);
    EXPECT_EQ(a.explicit_freqs, b.explicit_freqs);  // exact, not approx
    EXPECT_EQ(a.default_frequency, b.default_frequency);
    EXPECT_EQ(a.num_default_values, b.num_default_values);
    EXPECT_EQ(a.maintainer.num_tuples, b.maintainer.num_tuples);
    EXPECT_EQ(a.maintainer.tuples_at_build, b.maintainer.tuples_at_build);
    EXPECT_EQ(a.maintainer.updates_applied, b.maintainer.updates_applied);
    EXPECT_EQ(a.maintainer.drift, b.maintainer.drift);
    EXPECT_EQ(a.maintainer.hot_value, b.maintainer.hot_value);
    EXPECT_EQ(a.maintainer.hot_count, b.maintainer.hot_count);
    EXPECT_EQ(a.maintainer.hot_valid, b.maintainer.hot_valid);
    EXPECT_EQ(a.ideal_values, b.ideal_values);
    EXPECT_EQ(a.ideal_counts, b.ideal_counts);
    EXPECT_EQ(a.tuples_at_build, b.tuples_at_build);
    EXPECT_EQ(a.min_value, b.min_value);
    EXPECT_EQ(a.max_value, b.max_value);
    EXPECT_EQ(a.distinct, b.distinct);
    EXPECT_EQ(a.feedback_ewma, b.feedback_ewma);
    EXPECT_EQ(a.has_feedback, b.has_feedback);
    EXPECT_EQ(a.deltas_since_rebuild, b.deltas_since_rebuild);
    EXPECT_EQ(a.rebuilds, b.rebuilds);
  }
}

TEST(SnapshotFileName, RoundTrips) {
  EXPECT_EQ(SnapshotFileName(1), "snapshot-0000000000000001.hsnp");
  uint64_t seq = 0;
  EXPECT_TRUE(ParseSnapshotFileName("snapshot-00000000000000ff.hsnp", &seq));
  EXPECT_EQ(seq, 0xffu);
  EXPECT_TRUE(ParseSnapshotFileName(SnapshotFileName(0xDEADBEEFull), &seq));
  EXPECT_EQ(seq, 0xDEADBEEFull);
  EXPECT_FALSE(ParseSnapshotFileName("snapshot-xyz.hsnp", &seq));
  EXPECT_FALSE(ParseSnapshotFileName("wal-0000000000000001.wal", &seq));
  EXPECT_FALSE(ParseSnapshotFileName("snapshot-0000000000000001.hsnp~", &seq));
}

TEST(SnapshotEncode, RoundTripsExactly) {
  const RefreshDurableState state = MakeState();
  const std::string bytes = EncodeSnapshot(7, state);
  uint64_t seq = 0;
  Result<RefreshDurableState> decoded = DecodeSnapshot(bytes, &seq);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(seq, 7u);
  ExpectStatesEqual(state, *decoded);
}

TEST(SnapshotEncode, EmptyStateRoundTrips) {
  RefreshDurableState state;
  state.high_water_lsn = 5;
  const std::string bytes = EncodeSnapshot(1, state);
  Result<RefreshDurableState> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->high_water_lsn, 5u);
  EXPECT_TRUE(decoded->columns.empty());
}

TEST(SnapshotEncode, EncodingIsDeterministic) {
  const RefreshDurableState state = MakeState();
  EXPECT_EQ(EncodeSnapshot(3, state), EncodeSnapshot(3, state));
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

// The image's bytes are the on-disk contract: pin every field of a fixed
// two-column state, checksums included (all integers little-endian).
TEST(SnapshotEncode, EncodingIsPinned) {
  EXPECT_EQ(Hex(EncodeSnapshot(7, MakeState())),
            "48534e50"                // magic "HSNP"
            "01000000"                // version 1
            "0700000000000000"        // seq 7
            "efcdab9078563412"        // high-water LSN
            "07000000"                // 7 sections
            "0d19a08d"                // header CRC32C
            "01000000"                // section 1 (meta)
            "00000000"                // reserved
            "0001000000000000"        // offset
            "0800000000000000"        // length
            "c448501e"                // CRC32C
            "00000000"                // padding
            "02000000"                // section 2 (names)
            "00000000"                // reserved
            "0801000000000000"        // offset
            "2e00000000000000"        // length
            "12dc226b"                // CRC32C
            "00000000"                // padding
            "03000000"                // section 3 (columns)
            "00000000"                // reserved
            "3601000000000000"        // offset
            "3801000000000000"        // length
            "0e071e07"                // CRC32C
            "00000000"                // padding
            "04000000"                // section 4 (explicit values)
            "00000000"                // reserved
            "6e02000000000000"        // offset
            "1800000000000000"        // length
            "8b2921d8"                // CRC32C
            "00000000"                // padding
            "05000000"                // section 5 (explicit freqs)
            "00000000"                // reserved
            "8602000000000000"        // offset
            "1800000000000000"        // length
            "e1a7c4ec"                // CRC32C
            "00000000"                // padding
            "06000000"                // section 6 (ideal values)
            "00000000"                // reserved
            "9e02000000000000"        // offset
            "2000000000000000"        // length
            "4b9dad19"                // CRC32C
            "00000000"                // padding
            "07000000"                // section 7 (ideal counts)
            "00000000"                // reserved
            "be02000000000000"        // offset
            "2000000000000000"        // length
            "8308df57"                // CRC32C
            "00000000"                // padding
            "0200000000000000"        // meta: 2 columns
            "06000000"                // table length
            "0b000000"                // column length
            "6f7264657273"            // "orders"
            "637573746f6d65725f6964"  // "customer_id"
            "06000000"                // table length
            "07000000"                // column length
            "6f7264657273"            // "orders"
            "6974656d5f6964"          // "item_id"
            "922449922449c23f"        // customer_id: default frequency 1/7
            "5e00000000000000"        // default value count 94
            "00000000004a9340"        // maintainer tuples 1234.5
            "0000000000428f40"        // maintainer tuples at build 1000.25
            "4d00000000000000"        // updates applied 77
            "000000000000c0bf"        // drift -0.125
            "2a00000000000000"        // hot value 42
            "0000000000803140"        // hot count 17.5
            "0000000000428f40"        // tuples at build 1000.25
            "fbffffffffffffff"        // min value -5
            "07ca9a3b00000000"        // max value 1000000007
            "6100000000000000"        // distinct 97
            "555555555555d53f"        // feedback EWMA 1/3
            "0c00000000000000"        // deltas since rebuild 12
            "0300000000000000"        // rebuilds 3
            "03000000"                // flags: hot value valid | has feedback
            "0000000000000000"        // explicit offset
            "0300000000000000"        // explicit count
            "0000000000000000"        // ideal offset
            "0400000000000000"        // ideal count
            "0000000000001140"        // item_id: default frequency 4.25
            "0a00000000000000"        // default value count 10
            "0000000000004540"        // maintainer tuples 42.0
            "0000000000004540"        // maintainer tuples at build 42.0
            "0000000000000000"        // updates applied 0
            "0000000000000000"        // drift 0.0
            "0000000000000000"        // hot value 0
            "0000000000000000"        // hot count 0.0
            "0000000000004540"        // tuples at build 42.0
            "0000000000000000"        // min value 0
            "0900000000000000"        // max value 9
            "0a00000000000000"        // distinct 10
            "0000000000000000"        // feedback EWMA 0.0
            "0000000000000000"        // deltas since rebuild 0
            "0000000000000000"        // rebuilds 0
            "00000000"                // flags
            "0300000000000000"        // explicit offset
            "0000000000000000"        // explicit count
            "0400000000000000"        // ideal offset
            "0000000000000000"        // ideal count
            "fbffffffffffffff"        // explicit values: -5
            "0300000000000000"        // 3
            "07ca9a3b00000000"        // 1000000007
            "9a9999999999b93f"        // explicit freqs: 0.1
            "555555555555e53f"        // 2/3
            "c976be9f0c24fe40"        // 123456.789
            "fbffffffffffffff"        // ideal values: -5
            "0000000000000000"        // 0
            "0300000000000000"        // 3
            "0900000000000000"        // 9
            "000000000000f83f"        // ideal counts: 1.5
            "0000000000000000"        // 0.0
            "555555555555e53f"        // 2/3
            "0000000000002040"        // 8.0
  );
}

TEST(SnapshotFile, WriteReadAndInfo) {
  const std::string dir = MakeTempDir("snap");
  const RefreshDurableState state = MakeState();

  Result<std::string> path = WriteSnapshotFile(dir, 9, state);
  ASSERT_TRUE(path.ok()) << path.status().message();
  EXPECT_EQ(*path, dir + "/" + SnapshotFileName(9));

  uint64_t seq = 0;
  Result<RefreshDurableState> loaded = ReadSnapshotFile(*path, &seq);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(seq, 9u);
  ExpectStatesEqual(state, *loaded);

  // Header-only validation reads identity without decoding payloads.
  Result<SnapshotFileInfo> info = ReadSnapshotInfo(*path);
  ASSERT_TRUE(info.ok()) << info.status().message();
  EXPECT_EQ(info->seq, 9u);
  EXPECT_EQ(info->high_water_lsn, state.high_water_lsn);
}

TEST(SnapshotFile, ReadMissingFileIsNotFound) {
  const std::string dir = MakeTempDir("snapmiss");
  Result<RefreshDurableState> loaded =
      ReadSnapshotFile(dir + "/" + SnapshotFileName(1));
  EXPECT_FALSE(loaded.ok());
}

TEST(SnapshotFile, ListSortsBySeqAndIgnoresForeignFiles) {
  const std::string dir = MakeTempDir("snaplist");
  const RefreshDurableState state = MakeState();
  ASSERT_TRUE(WriteSnapshotFile(dir, 12, state).ok());
  ASSERT_TRUE(WriteSnapshotFile(dir, 3, state).ok());
  ASSERT_TRUE(WriteSnapshotFile(dir, 7, state).ok());
  // Foreign files (WAL segments, junk) must not be listed — and a corrupt
  // snapshot must still be listed so recovery can fall back past it.
  ASSERT_TRUE(WriteFileAtomic(dir, "wal-0000000000000001.wal", "junk", false)
                  .ok());
  ASSERT_TRUE(WriteFileAtomic(dir, "notes.txt", "hi", false).ok());
  ASSERT_TRUE(
      WriteFileAtomic(dir, SnapshotFileName(20), "corrupt", false).ok());

  Result<std::vector<SnapshotFileInfo>> listed = ListSnapshotFiles(dir);
  ASSERT_TRUE(listed.ok()) << listed.status().message();
  ASSERT_EQ(listed->size(), 4u);
  EXPECT_EQ((*listed)[0].seq, 3u);
  EXPECT_EQ((*listed)[1].seq, 7u);
  EXPECT_EQ((*listed)[2].seq, 12u);
  EXPECT_EQ((*listed)[3].seq, 20u);  // corrupt but listed
}

}  // namespace
}  // namespace hops::storage
