// The shared byte codec (src/util/bytes.h): the exact little-endian bytes
// of known values, and a reader that refuses to run past its input.

#include "util/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace hops {
namespace {

using namespace std::string_literals;

TEST(BytesTest, AppendWritesKnownValuesLittleEndian) {
  std::string out;
  AppendLE<uint8_t>(&out, 0xAB);
  AppendLE<uint16_t>(&out, 0x0102);
  AppendLE<uint32_t>(&out, 0x01020304);
  AppendLE<int64_t>(&out, -2);
  AppendLE<double>(&out, 1.0);  // 0x3FF0000000000000
  EXPECT_EQ(out,
            "\xAB"s
            "\x02\x01"s
            "\x04\x03\x02\x01"s
            "\xFE\xFF\xFF\xFF\xFF\xFF\xFF\xFF"s
            "\x00\x00\x00\x00\x00\x00\xF0\x3F"s);
}

TEST(BytesTest, StoreAndArrayAppendMatchScalarAppend) {
  const std::vector<int64_t> values = {0x0102030405060708, -1, 0};
  std::string scalar;
  for (const int64_t v : values) AppendLE(&scalar, v);

  std::string array;
  AppendLEArray<int64_t>(&array, values);
  EXPECT_EQ(array, scalar);

  std::string stored(values.size() * sizeof(int64_t), '\0');
  for (size_t i = 0; i < values.size(); ++i) {
    StoreLE(stored.data() + i * sizeof(int64_t), values[i]);
  }
  EXPECT_EQ(stored, scalar);
  EXPECT_EQ(static_cast<uint8_t>(scalar[0]), 0x08);
  EXPECT_EQ(static_cast<uint8_t>(scalar[7]), 0x01);

  std::string empty;
  AppendLEArray<double>(&empty, std::vector<double>{});
  EXPECT_TRUE(empty.empty());
}

TEST(BytesTest, ReaderReadsBackWhatWasWritten) {
  std::string bytes;
  AppendLE<uint16_t>(&bytes, 0xBEEF);
  AppendLE<int64_t>(&bytes, std::numeric_limits<int64_t>::min());
  AppendLE<double>(&bytes, -0.1);
  bytes += "name";
  AppendLEArray<double>(&bytes, std::vector<double>{0.5, 2.0 / 3.0});

  ByteReader reader(bytes);
  uint16_t u16 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::string_view name;
  std::vector<double> array;
  ASSERT_TRUE(reader.Read(&u16));
  ASSERT_TRUE(reader.Read(&i64));
  ASSERT_TRUE(reader.Read(&f64));
  ASSERT_TRUE(reader.Take(4, &name));
  ASSERT_TRUE(reader.ReadArray(2, &array));
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(i64, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(f64, -0.1);
  EXPECT_EQ(name, "name");
  EXPECT_EQ(array, (std::vector<double>{0.5, 2.0 / 3.0}));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BytesTest, ShortReadFailsAndLeavesTheCursorWhereItWas) {
  const std::string bytes = "\x01\x02\x03";
  ByteReader reader(bytes);

  uint32_t u32 = 7;
  EXPECT_FALSE(reader.Read(&u32));
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(reader.remaining(), 3u);

  std::string_view taken = "untouched";
  EXPECT_FALSE(reader.Take(4, &taken));
  EXPECT_EQ(taken, "untouched");
  EXPECT_EQ(reader.remaining(), 3u);

  // A hostile count fails before any allocation.
  std::vector<int64_t> array = {42};
  EXPECT_FALSE(reader.ReadArray(1, &array));
  EXPECT_FALSE(
      reader.ReadArray(std::numeric_limits<size_t>::max(), &array));
  EXPECT_EQ(array, (std::vector<int64_t>{42}));
  EXPECT_EQ(reader.remaining(), 3u);

  // The untouched bytes are still there to read.
  uint16_t u16 = 0;
  ASSERT_TRUE(reader.Read(&u16));
  EXPECT_EQ(u16, 0x0201);
  EXPECT_EQ(reader.remaining(), 1u);
  EXPECT_FALSE(reader.Read(&u16));
  EXPECT_EQ(reader.remaining(), 1u);
}

}  // namespace
}  // namespace hops
