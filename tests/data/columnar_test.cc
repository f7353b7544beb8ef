#include "data/columnar.h"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/census_generator.h"
#include "data/csv.h"
#include "../test_dir.h"

namespace ireduct {
namespace {

using columnar_internal::BitPack;
using columnar_internal::BitUnpack;
using columnar_internal::BitWidthFor;
using columnar_internal::Crc32;
using columnar_internal::PackedBytes;
using columnar_internal::RleDecode;
using columnar_internal::RleEncode;
using columnar_internal::RleMaxEncoded;

class ColumnarTest : public testing::Test {
 protected:
  CaseTempDir dir_;
  const std::string path_ = dir_.File("ireduct_columnar_test.col");
};

// A dataset with every pack-width regime the format cares about: 1-bit,
// mid-width, and a >8-bit domain whose codes byte-RLE well (heavy head).
Dataset MakeDataset(size_t rows, uint64_t seed = 5) {
  auto schema =
      Schema::Create({{"Bit", 2}, {"Mid", 37}, {"Wide", 40'000}, {"Tri", 3}});
  EXPECT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  BitGen gen(seed);
  for (size_t r = 0; r < rows; ++r) {
    const std::array<uint16_t, 4> row{
        static_cast<uint16_t>(gen.UniformInt(2)),
        static_cast<uint16_t>(gen.UniformInt(37)),
        // Mostly a handful of hot codes, occasionally the full domain.
        static_cast<uint16_t>(gen.UniformInt(10) < 8 ? gen.UniformInt(4)
                                                     : gen.UniformInt(40'000)),
        static_cast<uint16_t>(gen.UniformInt(3))};
    EXPECT_TRUE(d.AppendRow(row).ok());
  }
  return d;
}

std::vector<char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void Dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void ExpectSameContent(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema().attribute(c).name, b.schema().attribute(c).name);
    EXPECT_EQ(a.schema().attribute(c).domain_size,
              b.schema().attribute(c).domain_size);
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.value(r, c), b.value(r, c)) << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

// ---------------------------------------------------------------------------
// Internal codecs.

TEST(ColumnarCodecTest, BitWidthCoversDomainRange) {
  EXPECT_EQ(BitWidthFor(1), 1u);  // degenerate single-value domain
  EXPECT_EQ(BitWidthFor(2), 1u);
  EXPECT_EQ(BitWidthFor(3), 2u);
  EXPECT_EQ(BitWidthFor(4), 2u);
  EXPECT_EQ(BitWidthFor(5), 3u);
  EXPECT_EQ(BitWidthFor(256), 8u);
  EXPECT_EQ(BitWidthFor(257), 9u);
  EXPECT_EQ(BitWidthFor(65'535), 16u);
}

TEST(ColumnarCodecTest, PackedBytesMatchesBitMath) {
  EXPECT_EQ(PackedBytes(0, 7), 0u);
  EXPECT_EQ(PackedBytes(8, 1), 1u);
  EXPECT_EQ(PackedBytes(9, 1), 2u);
  EXPECT_EQ(PackedBytes(3, 16), 6u);
  EXPECT_EQ(PackedBytes(5, 3), 2u);  // 15 bits -> 2 bytes
}

TEST(ColumnarCodecTest, BitPackRoundTripsEveryWidth) {
  BitGen gen(11);
  for (unsigned width = 1; width <= 16; ++width) {
    const uint32_t limit = 1u << width;
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                           size_t{1000}}) {
      std::vector<uint16_t> values(n);
      for (auto& v : values) {
        v = static_cast<uint16_t>(gen.UniformInt(limit));
      }
      std::vector<uint8_t> packed(PackedBytes(n, width), 0xAB);
      BitPack(values.data(), n, width, packed.data());
      std::vector<uint16_t> back(n, 0xFFFF);
      BitUnpack(packed.data(), n, width, back.data());
      ASSERT_EQ(back, values) << "width " << width << " n " << n;
    }
  }
}

TEST(ColumnarCodecTest, RleRoundTripsRunsAndNoise) {
  BitGen gen(12);
  std::vector<std::vector<uint8_t>> inputs;
  inputs.push_back({});                         // empty
  inputs.push_back({42});                       // single byte
  inputs.push_back(std::vector<uint8_t>(5, 9)); // short run
  inputs.push_back(std::vector<uint8_t>(1000, 0));  // long run (> max run)
  {
    std::vector<uint8_t> noise(777);  // incompressible
    for (auto& b : noise) b = static_cast<uint8_t>(gen.UniformInt(256));
    inputs.push_back(std::move(noise));
  }
  {
    std::vector<uint8_t> mixed;  // literal/run alternation at boundaries
    for (int i = 0; i < 130; ++i) mixed.push_back(static_cast<uint8_t>(i));
    mixed.insert(mixed.end(), 130, 7);
    mixed.push_back(1);
    mixed.push_back(2);
    mixed.insert(mixed.end(), 3, 3);  // minimum-length run
    inputs.push_back(std::move(mixed));
  }
  for (const auto& input : inputs) {
    std::vector<uint8_t> encoded(RleMaxEncoded(input.size()) + 1, 0xCD);
    const size_t n = RleEncode(input.data(), input.size(), encoded.data());
    ASSERT_LE(n, RleMaxEncoded(input.size()));
    std::vector<uint8_t> back(input.size(), 0xEF);
    ASSERT_TRUE(RleDecode(encoded.data(), n, back.data(), input.size()).ok());
    ASSERT_EQ(back, input);
  }
}

TEST(ColumnarCodecTest, RleDecodeRefusesMalformedStreams) {
  std::vector<uint8_t> input(100, 5);
  std::vector<uint8_t> encoded(RleMaxEncoded(input.size()));
  const size_t n = RleEncode(input.data(), input.size(), encoded.data());
  std::vector<uint8_t> out(200);
  // Wrong expected length (both directions).
  EXPECT_FALSE(RleDecode(encoded.data(), n, out.data(), 99).ok());
  EXPECT_FALSE(RleDecode(encoded.data(), n, out.data(), 101).ok());
  // Truncated stream.
  EXPECT_FALSE(RleDecode(encoded.data(), n - 1, out.data(), 100).ok());
  // A run control byte with no payload byte after it.
  const uint8_t dangling[] = {0x90};
  EXPECT_FALSE(RleDecode(dangling, 1, out.data(), 10).ok());
}

TEST(ColumnarCodecTest, Crc32MatchesKnownVector) {
  // The IEEE CRC-32 check value ("123456789").
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check, sizeof(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// ---------------------------------------------------------------------------
// File round trips.

TEST_F(ColumnarTest, PackedRoundTripAcrossBlockSizes) {
  const Dataset d = MakeDataset(1'000);
  // 333 leaves a short last block; 1000 exactly one block; 64 many blocks.
  for (const uint32_t block_rows : {64u, 333u, 1000u, 4096u}) {
    ColumnarWriteOptions options;
    options.block_rows = block_rows;
    ASSERT_TRUE(WriteColumnar(d, path_, options).ok());
    auto file = ColumnarFile::Open(path_);
    ASSERT_TRUE(file.ok()) << file.status();
    EXPECT_EQ(file->num_rows(), d.num_rows());
    EXPECT_EQ(file->block_rows(), block_rows);
    EXPECT_EQ(file->num_blocks(),
              (d.num_rows() + block_rows - 1) / block_rows);
    EXPECT_EQ(file->fingerprint(), d.Fingerprint());
    EXPECT_FALSE(file->zero_copy());
    auto back = file->ToDataset();
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(back->owns_storage());
    ExpectSameContent(d, *back);
  }
}

TEST_F(ColumnarTest, ZeroCopyRoundTripServesMmapSpans) {
  const Dataset d = MakeDataset(1'000);
  ColumnarWriteOptions options;
  options.block_rows = 256;
  options.zero_copy_layout = true;
  ASSERT_TRUE(WriteColumnar(d, path_, options).ok());
  auto file = ColumnarFile::Open(path_);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_TRUE(file->zero_copy());
  for (uint32_t c = 0; c < d.num_columns(); ++c) {
    EXPECT_EQ(file->chunk_encoding(c, 0), ChunkEncoding::kRaw16);
    const auto span = file->ColumnSpan(c);
    ASSERT_EQ(span.size(), d.num_rows());
    for (size_t r = 0; r < d.num_rows(); ++r) {
      ASSERT_EQ(span[r], d.value(r, c));
    }
  }
  auto back = file->ToDataset();
  ASSERT_TRUE(back.ok()) << back.status();
  // Zero-copy files materialize as mmap-backed (read-only) datasets.
  EXPECT_FALSE(back->owns_storage());
  const std::array<uint16_t, 4> row{0, 0, 0, 0};
  EXPECT_FALSE(back->AppendRow(row).ok());
  ExpectSameContent(d, *back);
}

TEST_F(ColumnarTest, BackedDatasetOutlivesTheColumnarFileHandle) {
  const Dataset d = MakeDataset(200);
  ColumnarWriteOptions options;
  options.zero_copy_layout = true;
  ASSERT_TRUE(WriteColumnar(d, path_, options).ok());
  Result<Dataset> back = Status::Internal("unset");
  {
    auto file = ColumnarFile::Open(path_);
    ASSERT_TRUE(file.ok());
    back = file->ToDataset();
  }  // file handle gone; the dataset must keep the mapping alive
  ASSERT_TRUE(back.ok());
  ExpectSameContent(d, *back);
}

TEST_F(ColumnarTest, EmptyDatasetRoundTrips) {
  auto schema = Schema::Create({{"A", 3}, {"B", 9}});
  ASSERT_TRUE(schema.ok());
  const Dataset d(std::move(schema).value());
  for (const bool zero_copy : {false, true}) {
    ColumnarWriteOptions options;
    options.zero_copy_layout = zero_copy;
    ASSERT_TRUE(WriteColumnar(d, path_, options).ok());
    auto back = ReadColumnar(path_);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->num_rows(), 0u);
    EXPECT_EQ(back->num_columns(), 2u);
    EXPECT_EQ(back->Fingerprint(), d.Fingerprint());
  }
}

TEST_F(ColumnarTest, CsvColumnarCsvIsByteIdentical) {
  const Dataset d = MakeDataset(500);
  const std::string csv_a = path_ + ".b";
  ASSERT_TRUE(WriteCsv(d, csv_a).ok());
  ASSERT_TRUE(WriteColumnar(d, path_).ok());
  auto back = ReadColumnar(path_);
  ASSERT_TRUE(back.ok());
  const std::string csv_b = dir_.File("ireduct_columnar_rt.csv");
  ASSERT_TRUE(WriteCsv(*back, csv_b).ok());
  EXPECT_EQ(Slurp(csv_a), Slurp(csv_b));
}

TEST_F(ColumnarTest, FingerprintIsStableAcrossBackingStores) {
  // The same content must fingerprint identically whether it lives in
  // owned vectors, decoded packed columns, or the mmap'd zero-copy file —
  // MarginalCache keys on this.
  auto d = GenerateProfile({DataProfile::kZipfHeavy, CensusKind::kBrazil,
                            5'000, 3});
  ASSERT_TRUE(d.ok());
  const uint64_t want = d->Fingerprint();

  ASSERT_TRUE(WriteColumnar(*d, path_).ok());
  auto packed = ReadColumnar(path_);
  ASSERT_TRUE(packed.ok());
  EXPECT_TRUE(packed->owns_storage());
  EXPECT_EQ(packed->Fingerprint(), want);

  ColumnarWriteOptions zc;
  zc.zero_copy_layout = true;
  ASSERT_TRUE(WriteColumnar(*d, path_, zc).ok());
  auto file = ColumnarFile::Open(path_);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->fingerprint(), want);
  auto backed = file->ToDataset();
  ASSERT_TRUE(backed.ok());
  EXPECT_FALSE(backed->owns_storage());
  EXPECT_EQ(backed->Fingerprint(), want);
}

TEST_F(ColumnarTest, CompressionCanBeDisabled) {
  const Dataset d = MakeDataset(2'000);
  ASSERT_TRUE(WriteColumnar(d, path_).ok());
  const uint64_t compressed = Slurp(path_).size();
  ColumnarWriteOptions raw;
  raw.compress = false;
  ASSERT_TRUE(WriteColumnar(d, path_, raw).ok());
  const uint64_t uncompressed = Slurp(path_).size();
  // The hot-coded Wide column RLEs well, so compression must have helped.
  EXPECT_LT(compressed, uncompressed);
  auto file = ColumnarFile::Open(path_);
  ASSERT_TRUE(file.ok());
  for (uint32_t c = 0; c < d.num_columns(); ++c) {
    for (uint32_t b = 0; b < file->num_blocks(); ++b) {
      EXPECT_EQ(file->chunk_encoding(c, b), ChunkEncoding::kPacked);
    }
  }
  auto back = file->ToDataset();
  ASSERT_TRUE(back.ok());
  ExpectSameContent(d, *back);
}

// ---------------------------------------------------------------------------
// Corruption refusal.

TEST_F(ColumnarTest, RefusesTruncatedFiles) {
  const Dataset d = MakeDataset(300);
  for (const bool zero_copy : {false, true}) {
    ColumnarWriteOptions options;
    options.zero_copy_layout = zero_copy;
    ASSERT_TRUE(WriteColumnar(d, path_, options).ok());
    const std::vector<char> bytes = Slurp(path_);
    for (const size_t keep :
         {size_t{0}, size_t{10}, size_t{55}, bytes.size() / 2,
          bytes.size() - 1}) {
      Dump(path_, std::vector<char>(bytes.begin(), bytes.begin() + keep));
      auto file = ColumnarFile::Open(path_);
      if (file.ok()) {
        // A prefix that still parses must at least fail to decode.
        EXPECT_FALSE(file->ToDataset().ok())
            << "accepted a " << keep << "-byte truncation";
      }
    }
  }
}

TEST_F(ColumnarTest, RefusesCorruptHeaderAndIndex) {
  const Dataset d = MakeDataset(300);
  ASSERT_TRUE(WriteColumnar(d, path_).ok());
  const std::vector<char> bytes = Slurp(path_);

  // Bad magic.
  std::vector<char> bad = bytes;
  bad[0] ^= 0x01;
  Dump(path_, bad);
  EXPECT_FALSE(ColumnarFile::Open(path_).ok());

  // Header CRC catches a flipped schema byte (attribute name region).
  bad = bytes;
  bad[60] ^= 0x10;
  Dump(path_, bad);
  EXPECT_FALSE(ColumnarFile::Open(path_).ok());

  // Index CRC catches a flipped trailing index byte.
  bad = bytes;
  bad[bad.size() - 1] ^= 0x04;
  Dump(path_, bad);
  EXPECT_FALSE(ColumnarFile::Open(path_).ok());
}

TEST_F(ColumnarTest, RefusesFlippedDataBytes) {
  const Dataset d = MakeDataset(300);
  for (const bool zero_copy : {false, true}) {
    ColumnarWriteOptions options;
    options.zero_copy_layout = zero_copy;
    ASSERT_TRUE(WriteColumnar(d, path_, options).ok());
    std::vector<char> bytes = Slurp(path_);
    bytes[bytes.size() / 2] ^= 0x20;  // middle of the chunk section
    Dump(path_, bytes);
    auto file = ColumnarFile::Open(path_);
    if (zero_copy) {
      // Zero-copy files verify every chunk CRC up front.
      EXPECT_FALSE(file.ok());
    } else {
      // Packed files verify chunk CRCs on decode.
      ASSERT_TRUE(file.ok()) << file.status();
      EXPECT_FALSE(file->ToDataset().ok());
    }
  }
}

TEST_F(ColumnarTest, RefusesMissingFile) {
  EXPECT_EQ(ColumnarFile::Open(path_ + ".nope").status().code(),
            StatusCode::kIoError);
}

// A server keeps dataset files mapped while they are served; rewriting one
// must leave every open handle on the old rows. The new file is smaller, so
// an in-place truncation would also fault reads of the old mapping.
TEST_F(ColumnarTest, RewriteLeavesOpenFileAndDatasetIntact) {
  const Dataset before = MakeDataset(3'000, 5);
  const Dataset after = MakeDataset(1'000, 6);
  ASSERT_NE(before.Fingerprint(), after.Fingerprint());
  for (const bool zero_copy : {true, false}) {
    ColumnarWriteOptions options;
    options.block_rows = 512;
    options.zero_copy_layout = zero_copy;
    ASSERT_TRUE(WriteColumnar(before, path_, options).ok());
    auto file = ColumnarFile::Open(path_);
    ASSERT_TRUE(file.ok()) << file.status();
    auto served = file->ToDataset();
    ASSERT_TRUE(served.ok()) << served.status();

    ASSERT_TRUE(WriteColumnar(after, path_, options).ok());

    EXPECT_EQ(file->fingerprint(), before.Fingerprint());
    ExpectSameContent(before, *served);
    auto reread = file->ToDataset();  // decodes the old mapping again
    ASSERT_TRUE(reread.ok()) << reread.status();
    ExpectSameContent(before, *reread);

    auto fresh = ReadColumnar(path_);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ExpectSameContent(after, *fresh);
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
  }
}

TEST_F(ColumnarTest, FailedWriteLeavesTargetAndNoTempFile) {
  // The target is a directory, so the final rename fails after the temp
  // file was fully written.
  const std::string target = dir_.File("a_directory");
  std::filesystem::create_directory(target);
  const Status status = WriteColumnar(MakeDataset(100), target);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(std::filesystem::is_directory(target));
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
}

}  // namespace
}  // namespace ireduct
