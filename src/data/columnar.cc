#include "data/columnar.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dp/ledger_journal.h"

namespace ireduct {

// The zero-copy path serves file bytes directly as uint16_t, and the
// packed codecs rely on byte order when splitting values across bytes.
static_assert(std::endian::native == std::endian::little,
              "columnar format assumes a little-endian host");

namespace columnar_internal {

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected), slice-by-8. The journal layer
// has a nibble-table Crc32 for its short records; chunk sections here are
// megabytes, so the 8-bytes-per-step variant earns its 8 KiB of tables.

namespace {

struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[0][i] = crc;
    }
    for (int s = 1; s < 8; ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
      }
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const Crc32Tables& tb = Tables();
  uint32_t crc = 0xFFFFFFFFu;
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    lo ^= crc;
    crc = tb.t[7][lo & 0xffu] ^ tb.t[6][(lo >> 8) & 0xffu] ^
          tb.t[5][(lo >> 16) & 0xffu] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xffu] ^ tb.t[2][(hi >> 8) & 0xffu] ^
          tb.t[1][(hi >> 16) & 0xffu] ^ tb.t[0][hi >> 24];
    data += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *data++) & 0xffu];
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Bit packing: LSB-first into a little-endian bit stream, drained through a
// 64-bit accumulator so each value costs one shift/or and at most one
// 8-byte store.

unsigned BitWidthFor(uint32_t domain_size) {
  IREDUCT_DCHECK(domain_size >= 1 && domain_size <= 65535);
  const uint32_t max_code = domain_size - 1;
  const unsigned width = max_code == 0 ? 1u : 32u - std::countl_zero(max_code);
  return width;
}

size_t PackedBytes(size_t rows, unsigned width) {
  return (rows * width + 7) / 8;
}

void BitPack(const uint16_t* src, size_t n, unsigned width, uint8_t* dst) {
  uint64_t acc = 0;
  unsigned bits = 0;
  for (size_t i = 0; i < n; ++i) {
    acc |= static_cast<uint64_t>(src[i]) << bits;
    bits += width;
    if (bits >= 32) {
      std::memcpy(dst, &acc, 4);
      dst += 4;
      acc >>= 32;
      bits -= 32;
    }
  }
  while (bits > 0) {
    *dst++ = static_cast<uint8_t>(acc & 0xffu);
    acc >>= 8;
    bits = bits > 8 ? bits - 8 : 0;
  }
}

void BitUnpack(const uint8_t* src, size_t n, unsigned width, uint16_t* dst) {
  const uint64_t mask = (uint64_t{1} << width) - 1;
  uint64_t acc = 0;
  unsigned bits = 0;
  const uint8_t* end = src + PackedBytes(n, width);
  for (size_t i = 0; i < n; ++i) {
    while (bits < width) {
      if (end - src >= 4) {
        uint32_t word;
        std::memcpy(&word, src, 4);
        acc |= static_cast<uint64_t>(word) << bits;
        src += 4;
        bits += 32;
      } else {
        acc |= static_cast<uint64_t>(*src++) << bits;
        bits += 8;
      }
    }
    dst[i] = static_cast<uint16_t>(acc & mask);
    acc >>= width;
    bits -= width;
  }
}

// ---------------------------------------------------------------------------
// Byte-RLE framing (one control byte per run):
//   c in [0, 127]   -> the next c + 1 bytes are literals;
//   c in [128, 255] -> the next byte repeats c - 125 times (3 .. 130).
// Runs shorter than 3 never pay for a control byte, so the worst case
// (no runs at all) costs one control byte per 128 literals.

size_t RleMaxEncoded(size_t n) { return n + n / 128 + 2; }

size_t RleEncode(const uint8_t* src, size_t n, uint8_t* dst) {
  uint8_t* out = dst;
  size_t i = 0;
  size_t literal_start = 0;
  const auto flush_literals = [&](size_t end) {
    size_t pos = literal_start;
    while (pos < end) {
      const size_t take = std::min<size_t>(128, end - pos);
      *out++ = static_cast<uint8_t>(take - 1);
      std::memcpy(out, src + pos, take);
      out += take;
      pos += take;
    }
  };
  while (i < n) {
    size_t run = 1;
    while (i + run < n && src[i + run] == src[i] && run < 130) ++run;
    if (run >= 3) {
      flush_literals(i);
      *out++ = static_cast<uint8_t>(125 + run);
      *out++ = src[i];
      i += run;
      literal_start = i;
    } else {
      i += run;
    }
  }
  flush_literals(n);
  return static_cast<size_t>(out - dst);
}

Status RleDecode(const uint8_t* src, size_t n, uint8_t* dst, size_t want) {
  size_t produced = 0;
  size_t i = 0;
  while (i < n) {
    const uint8_t c = src[i++];
    if (c < 128) {
      const size_t take = static_cast<size_t>(c) + 1;
      if (i + take > n || produced + take > want) {
        return Status::IoError("malformed RLE stream: literal run overflows");
      }
      std::memcpy(dst + produced, src + i, take);
      i += take;
      produced += take;
    } else {
      const size_t run = static_cast<size_t>(c) - 125;
      if (i >= n || produced + run > want) {
        return Status::IoError("malformed RLE stream: repeat run overflows");
      }
      std::memset(dst + produced, src[i++], run);
      produced += run;
    }
  }
  if (produced != want) {
    return Status::IoError("malformed RLE stream: decoded " +
                           std::to_string(produced) + " bytes, expected " +
                           std::to_string(want));
  }
  return Status::OK();
}

}  // namespace columnar_internal

namespace {

using columnar_internal::BitPack;
using columnar_internal::BitUnpack;
using columnar_internal::BitWidthFor;
using columnar_internal::Crc32;
using columnar_internal::PackedBytes;
using columnar_internal::RleDecode;
using columnar_internal::RleEncode;
using columnar_internal::RleMaxEncoded;

// ---------------------------------------------------------------------------
// On-disk layout constants. All integers little-endian.
//
//   [ header: 56 bytes ][ schema section ][ pad to 64 ]
//   [ chunk data, column-major ]
//   [ chunk index: 20 bytes per chunk ]
//
// Header fields (offset: field):
//    0: u32 magic            8: u16 version         12: u32 num_columns
//    4: u32 data_offset     10: u16 flags
//   16: u64 num_rows        24: u32 block_rows      28: u32 num_blocks
//   32: u64 fingerprint     40: u64 index_offset
//   48: u32 index_crc       52: u32 header_crc
// header_crc covers bytes [0, data_offset) with its own field zeroed.
// Schema section: per column { u16 name_len, name bytes, u32 domain_size,
// u8 bit_width, u8 reserved }.

constexpr uint32_t kMagic = 0x4C435249u;  // "IRCL"
constexpr uint16_t kVersion = 1;
constexpr uint16_t kFlagZeroCopy = 1u << 0;
constexpr size_t kHeaderBytes = 56;
constexpr size_t kHeaderCrcOffset = 52;
constexpr size_t kIndexEntryBytes = 20;
constexpr size_t kColumnAlign = 64;

void PutU16(std::string& out, uint16_t v) {
  out.append(reinterpret_cast<const char*>(&v), 2);
}
void PutU32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), 4);
}
void PutU64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}
uint16_t GetU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

struct ChunkEntry {
  uint64_t offset = 0;
  uint32_t encoded_bytes = 0;
  uint32_t crc = 0;
  ChunkEncoding encoding = ChunkEncoding::kRaw16;
};

Status WriteFailure(const std::string& path, const std::string& what) {
  return Status::IoError("columnar write to '" + path + "' failed: " + what);
}

Status OpenFailure(const std::string& path, const std::string& what) {
  return Status::IoError("columnar file '" + path + "': " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer

namespace {

// Writes the columnar image of `dataset` into `file`; errors name `path`,
// the file the caller is replacing.
Status WriteColumnarFile(const Dataset& dataset, const std::string& path,
                         const std::string& file,
                         const ColumnarWriteOptions& options) {
  if (options.block_rows == 0) {
    return Status::InvalidArgument("block_rows must be positive");
  }
  const Schema& schema = dataset.schema();
  const size_t num_cols = schema.num_attributes();
  const uint64_t num_rows = dataset.num_rows();
  const uint32_t block_rows = options.block_rows;
  const uint32_t num_blocks =
      static_cast<uint32_t>((num_rows + block_rows - 1) / block_rows);

  // Schema section + the final data offset (padded so the zero-copy
  // layout starts every column on a cache-line boundary; harmless
  // otherwise).
  std::string schema_bytes;
  for (size_t c = 0; c < num_cols; ++c) {
    const Attribute& attr = schema.attribute(c);
    if (attr.name.size() > 65535) {
      return WriteFailure(path, "attribute name too long");
    }
    PutU16(schema_bytes, static_cast<uint16_t>(attr.name.size()));
    schema_bytes.append(attr.name);
    PutU32(schema_bytes, attr.domain_size);
    schema_bytes.push_back(static_cast<char>(BitWidthFor(attr.domain_size)));
    schema_bytes.push_back('\0');
  }
  size_t data_offset = kHeaderBytes + schema_bytes.size();
  data_offset = (data_offset + kColumnAlign - 1) / kColumnAlign * kColumnAlign;

  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  if (!out) return WriteFailure(path, "cannot open for writing");

  // Placeholder header + schema + padding; the real header lands last,
  // once the fingerprint, index offset, and CRCs are known.
  std::string prefix(data_offset, '\0');
  out.write(prefix.data(), static_cast<std::streamsize>(prefix.size()));

  // Chunk data, column-major, so each column of a zero-copy file is one
  // contiguous run the reader can span directly.
  std::vector<ChunkEntry> index;
  index.reserve(static_cast<size_t>(num_cols) * num_blocks);
  uint64_t pos = data_offset;
  std::vector<uint8_t> packed;
  std::vector<uint8_t> rle;
  for (size_t c = 0; c < num_cols; ++c) {
    const std::span<const uint16_t> col = dataset.column(c);
    const unsigned width = BitWidthFor(schema.attribute(c).domain_size);
    if (options.zero_copy_layout) {
      const uint64_t pad = (kColumnAlign - pos % kColumnAlign) % kColumnAlign;
      if (pad > 0) {
        static const std::array<char, kColumnAlign> zeros{};
        out.write(zeros.data(), static_cast<std::streamsize>(pad));
        pos += pad;
      }
    }
    for (uint32_t b = 0; b < num_blocks; ++b) {
      const size_t row0 = static_cast<size_t>(b) * block_rows;
      const size_t rows =
          std::min<size_t>(block_rows, static_cast<size_t>(num_rows) - row0);
      const uint8_t* bytes = nullptr;
      size_t nbytes = 0;
      ChunkEncoding encoding;
      if (options.zero_copy_layout) {
        encoding = ChunkEncoding::kRaw16;
        bytes = reinterpret_cast<const uint8_t*>(col.data() + row0);
        nbytes = rows * 2;
      } else {
        packed.resize(PackedBytes(rows, width));
        BitPack(col.data() + row0, rows, width, packed.data());
        encoding = ChunkEncoding::kPacked;
        bytes = packed.data();
        nbytes = packed.size();
        if (options.compress) {
          rle.resize(RleMaxEncoded(packed.size()));
          const size_t rle_bytes =
              RleEncode(packed.data(), packed.size(), rle.data());
          if (rle_bytes < nbytes) {
            encoding = ChunkEncoding::kPackedRle;
            bytes = rle.data();
            nbytes = rle_bytes;
          }
        }
      }
      ChunkEntry entry;
      entry.offset = pos;
      entry.encoded_bytes = static_cast<uint32_t>(nbytes);
      entry.crc = Crc32(bytes, nbytes);
      entry.encoding = encoding;
      index.push_back(entry);
      out.write(reinterpret_cast<const char*>(bytes),
                static_cast<std::streamsize>(nbytes));
      pos += nbytes;
    }
  }

  // Chunk index, sealed by its own CRC carried in the header.
  const uint64_t index_offset = pos;
  std::string index_bytes;
  index_bytes.reserve(index.size() * kIndexEntryBytes);
  for (const ChunkEntry& entry : index) {
    PutU64(index_bytes, entry.offset);
    PutU32(index_bytes, entry.encoded_bytes);
    PutU32(index_bytes, entry.crc);
    index_bytes.push_back(static_cast<char>(entry.encoding));
    index_bytes.append(3, '\0');
  }
  out.write(index_bytes.data(),
            static_cast<std::streamsize>(index_bytes.size()));
  if (!out) return WriteFailure(path, "short write");

  // Final header. header_crc is computed over [0, data_offset) with the
  // crc field zeroed, so any bit flip in the header or schema section is
  // caught before either is trusted.
  std::string header;
  header.reserve(kHeaderBytes);
  PutU32(header, kMagic);
  PutU32(header, static_cast<uint32_t>(data_offset));
  PutU16(header, kVersion);
  PutU16(header, options.zero_copy_layout ? kFlagZeroCopy : 0);
  PutU32(header, static_cast<uint32_t>(num_cols));
  PutU64(header, num_rows);
  PutU32(header, block_rows);
  PutU32(header, num_blocks);
  PutU64(header, dataset.Fingerprint());
  PutU64(header, index_offset);
  PutU32(header,
         Crc32(reinterpret_cast<const uint8_t*>(index_bytes.data()),
               index_bytes.size()));
  PutU32(header, 0);  // header_crc placeholder
  IREDUCT_DCHECK(header.size() == kHeaderBytes);
  std::string crc_input = header + schema_bytes;
  crc_input.resize(data_offset, '\0');
  const uint32_t header_crc =
      Crc32(reinterpret_cast<const uint8_t*>(crc_input.data()),
            crc_input.size());
  header.resize(kHeaderCrcOffset);
  PutU32(header, header_crc);

  out.seekp(0);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(schema_bytes.data(),
            static_cast<std::streamsize>(schema_bytes.size()));
  out.close();
  if (!out) return WriteFailure(path, "short write");
  return Status::OK();
}

Status SyncFile(const std::string& path, const std::string& file) {
  const int fd = ::open(file.c_str(), O_WRONLY);
  if (fd < 0) {
    return WriteFailure(path, std::string("reopen for fsync: ") +
                                  std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int fsync_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return WriteFailure(path,
                        std::string("fsync: ") + std::strerror(fsync_errno));
  }
  return Status::OK();
}

}  // namespace

Status WriteColumnar(const Dataset& dataset, const std::string& path,
                     const ColumnarWriteOptions& options) {
  // Build the new file beside the old one and rename it into place: a
  // reader that has the old file mapped (QueryServer::AddDatasetFile)
  // keeps its inode, where truncating in place would SIGBUS it.
  const std::string tmp = path + ".tmp";
  Status status = WriteColumnarFile(dataset, path, tmp, options);
  if (status.ok()) status = SyncFile(path, tmp);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = WriteFailure(path, std::string("rename: ") + std::strerror(errno));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());  // don't leak a half-written file
    return status;
  }
  return SyncParentDir(path);
}

// ---------------------------------------------------------------------------
// Reader

struct ColumnarFile::Rep {
  std::string path;
  const uint8_t* data = nullptr;  // mmap base (nullptr for empty files)
  size_t size = 0;
  Schema schema;
  uint64_t num_rows = 0;
  uint32_t block_rows = 1;
  uint32_t num_blocks = 0;
  uint64_t fingerprint = 0;
  bool zero_copy = false;
  std::vector<ChunkEntry> chunks;       // column-major, num_cols*num_blocks
  std::vector<unsigned> bit_widths;     // per column
  std::vector<uint64_t> column_starts;  // zero-copy only: byte offsets

  explicit Rep(Schema s) : schema(std::move(s)) {}
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;
  ~Rep() {
    if (data != nullptr) {
      ::munmap(const_cast<uint8_t*>(data), size);
    }
  }

  const ChunkEntry& chunk(uint32_t column, uint32_t block) const {
    return chunks[static_cast<size_t>(column) * num_blocks + block];
  }
  size_t RowsInBlock(uint32_t block) const {
    const uint64_t row0 = static_cast<uint64_t>(block) * block_rows;
    return static_cast<size_t>(
        std::min<uint64_t>(block_rows, num_rows - row0));
  }
};

ColumnarFile::ColumnarFile(std::shared_ptr<const Rep> rep)
    : rep_(std::move(rep)) {}

const Schema& ColumnarFile::schema() const { return rep_->schema; }
uint64_t ColumnarFile::num_rows() const { return rep_->num_rows; }
uint32_t ColumnarFile::block_rows() const { return rep_->block_rows; }
uint32_t ColumnarFile::num_blocks() const { return rep_->num_blocks; }
uint64_t ColumnarFile::fingerprint() const { return rep_->fingerprint; }
uint64_t ColumnarFile::file_bytes() const { return rep_->size; }
bool ColumnarFile::zero_copy() const { return rep_->zero_copy; }
unsigned ColumnarFile::bit_width(uint32_t column) const {
  return rep_->bit_widths[column];
}
ChunkEncoding ColumnarFile::chunk_encoding(uint32_t column,
                                           uint32_t block) const {
  return rep_->chunk(column, block).encoding;
}
uint64_t ColumnarFile::chunk_bytes(uint32_t column, uint32_t block) const {
  return rep_->chunk(column, block).encoded_bytes;
}
size_t ColumnarFile::RowsInBlock(uint32_t block) const {
  return rep_->RowsInBlock(block);
}

Result<ColumnarFile> ColumnarFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return OpenFailure(path, "cannot open: " + std::string(strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return OpenFailure(path, "fstat failed: " + err);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    return OpenFailure(path, "truncated: " + std::to_string(size) +
                                 " bytes is smaller than the header");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return OpenFailure(path, "mmap failed: " + std::string(strerror(errno)));
  }
  const uint8_t* data = static_cast<const uint8_t*>(map);
  // From here on, any failure must unmap; wrap in a lambda and clean up on
  // error at the single exit below.
  auto fail = [&](const std::string& what) -> Result<ColumnarFile> {
    ::munmap(map, size);
    return OpenFailure(path, what);
  };

  if (GetU32(data) != kMagic) return fail("bad magic (not a columnar file)");
  const uint32_t data_offset = GetU32(data + 4);
  const uint16_t version = GetU16(data + 8);
  if (version != kVersion) {
    return fail("unsupported version " + std::to_string(version));
  }
  if (data_offset < kHeaderBytes || data_offset > size) {
    return fail("corrupt header: data offset out of bounds");
  }
  // Header CRC before trusting anything else in the prefix.
  {
    std::vector<uint8_t> prefix(data, data + data_offset);
    std::memset(prefix.data() + kHeaderCrcOffset, 0, 4);
    const uint32_t want = GetU32(data + kHeaderCrcOffset);
    const uint32_t got = Crc32(prefix.data(), prefix.size());
    if (want != got) return fail("header CRC mismatch");
  }
  const uint16_t flags = GetU16(data + 10);
  const uint32_t num_cols = GetU32(data + 12);
  const uint64_t num_rows = GetU64(data + 16);
  const uint32_t block_rows = GetU32(data + 24);
  const uint32_t num_blocks = GetU32(data + 28);
  const uint64_t fingerprint = GetU64(data + 32);
  const uint64_t index_offset = GetU64(data + 40);
  const uint32_t index_crc = GetU32(data + 48);
  if (block_rows == 0) return fail("corrupt header: zero block_rows");
  const uint64_t expect_blocks = (num_rows + block_rows - 1) / block_rows;
  if (expect_blocks != num_blocks) {
    return fail("corrupt header: block count does not match row count");
  }

  // Schema section.
  std::vector<Attribute> attributes;
  std::vector<unsigned> bit_widths;
  {
    const uint8_t* p = data + kHeaderBytes;
    const uint8_t* end = data + data_offset;
    for (uint32_t c = 0; c < num_cols; ++c) {
      if (end - p < 2) return fail("corrupt schema section");
      const uint16_t name_len = GetU16(p);
      p += 2;
      if (end - p < name_len + 6) return fail("corrupt schema section");
      Attribute attr;
      attr.name.assign(reinterpret_cast<const char*>(p), name_len);
      p += name_len;
      attr.domain_size = GetU32(p);
      p += 4;
      const unsigned width = *p;
      p += 2;
      if (attr.domain_size < 1 || attr.domain_size > 65535 ||
          width != BitWidthFor(attr.domain_size)) {
        return fail("corrupt schema: bad domain or bit width for column " +
                    std::to_string(c));
      }
      attributes.push_back(std::move(attr));
      bit_widths.push_back(width);
    }
  }
  Result<Schema> schema = Schema::Create(std::move(attributes));
  if (!schema.ok()) return fail("invalid schema: " + schema.status().message());

  // Chunk index: bounds, CRC, then per-entry validation.
  const uint64_t num_chunks = static_cast<uint64_t>(num_cols) * num_blocks;
  const uint64_t index_bytes = num_chunks * kIndexEntryBytes;
  if (index_offset < data_offset || index_offset > size ||
      index_bytes != size - index_offset) {
    return fail("corrupt header: chunk index out of bounds");
  }
  if (Crc32(data + index_offset, index_bytes) != index_crc) {
    return fail("chunk index CRC mismatch");
  }
  std::vector<ChunkEntry> chunks(num_chunks);
  for (uint64_t i = 0; i < num_chunks; ++i) {
    const uint8_t* p = data + index_offset + i * kIndexEntryBytes;
    ChunkEntry& entry = chunks[i];
    entry.offset = GetU64(p);
    entry.encoded_bytes = GetU32(p + 8);
    entry.crc = GetU32(p + 12);
    const uint8_t encoding = p[16];
    if (encoding > static_cast<uint8_t>(ChunkEncoding::kPackedRle)) {
      return fail("corrupt index: unknown chunk encoding");
    }
    entry.encoding = static_cast<ChunkEncoding>(encoding);
    if (entry.offset < data_offset ||
        entry.offset + entry.encoded_bytes > index_offset) {
      return fail("corrupt index: chunk bytes out of bounds");
    }
  }

  auto rep = std::make_shared<Rep>(std::move(schema).value());
  rep->path = path;
  rep->data = data;
  rep->size = size;
  rep->num_rows = num_rows;
  rep->block_rows = block_rows;
  rep->num_blocks = num_blocks;
  rep->fingerprint = fingerprint;
  rep->chunks = std::move(chunks);
  rep->bit_widths = std::move(bit_widths);

  if (flags & kFlagZeroCopy) {
    // Zero-copy contract: every chunk raw16, each column one contiguous
    // aligned run — verified here, along with every chunk CRC, so
    // ColumnSpan can hand out raw mapped bytes with no further checks.
    rep->column_starts.resize(num_cols, 0);
    for (uint32_t c = 0; c < num_cols; ++c) {
      uint64_t expect_offset = 0;
      for (uint32_t b = 0; b < num_blocks; ++b) {
        const ChunkEntry& entry = rep->chunk(c, b);
        const size_t rows = rep->RowsInBlock(b);
        if (entry.encoding != ChunkEncoding::kRaw16 ||
            entry.encoded_bytes != rows * 2) {
          return fail("zero-copy file holds a non-raw chunk");
        }
        if (b == 0) {
          if (entry.offset % 2 != 0) {
            return fail("zero-copy column start is misaligned");
          }
          rep->column_starts[c] = entry.offset;
        } else if (entry.offset != expect_offset) {
          return fail("zero-copy column is not contiguous");
        }
        expect_offset = entry.offset + entry.encoded_bytes;
        if (Crc32(data + entry.offset, entry.encoded_bytes) != entry.crc) {
          return fail("chunk CRC mismatch (column " + std::to_string(c) +
                      ", block " + std::to_string(b) + ")");
        }
      }
    }
    rep->zero_copy = true;
  }

  return ColumnarFile(std::move(rep));
}

Status ColumnarFile::DecodeChunk(uint32_t column, uint32_t block,
                                 uint16_t* out) const {
  const Rep& rep = *rep_;
  IREDUCT_DCHECK(column < rep.schema.num_attributes());
  IREDUCT_DCHECK(block < rep.num_blocks);
  const ChunkEntry& entry = rep.chunk(column, block);
  const uint8_t* bytes = rep.data + entry.offset;
  const size_t rows = rep.RowsInBlock(block);
  // Zero-copy files had every chunk CRC checked at Open; packed files pay
  // per chunk, on first touch.
  if (!rep.zero_copy && Crc32(bytes, entry.encoded_bytes) != entry.crc) {
    return OpenFailure(rep.path, "chunk CRC mismatch (column " +
                                     std::to_string(column) + ", block " +
                                     std::to_string(block) + ")");
  }
  const unsigned width = rep.bit_widths[column];
  const size_t packed_bytes = PackedBytes(rows, width);
  switch (entry.encoding) {
    case ChunkEncoding::kRaw16: {
      if (entry.encoded_bytes != rows * 2) {
        return OpenFailure(rep.path, "raw chunk has wrong size");
      }
      std::memcpy(out, bytes, rows * 2);
      break;
    }
    case ChunkEncoding::kPacked: {
      if (entry.encoded_bytes != packed_bytes) {
        return OpenFailure(rep.path, "packed chunk has wrong size");
      }
      BitUnpack(bytes, rows, width, out);
      break;
    }
    case ChunkEncoding::kPackedRle: {
      thread_local std::vector<uint8_t> scratch;
      scratch.resize(packed_bytes);
      IREDUCT_RETURN_NOT_OK(
          RleDecode(bytes, entry.encoded_bytes, scratch.data(), packed_bytes));
      BitUnpack(scratch.data(), rows, width, out);
      break;
    }
  }
  // Domain check: downstream counting kernels index tables by these codes,
  // so an out-of-domain value must never escape the decoder.
  const uint32_t domain = rep.schema.attribute(column).domain_size;
  uint16_t max_value = 0;
  for (size_t i = 0; i < rows; ++i) max_value = std::max(max_value, out[i]);
  if (rows > 0 && max_value >= domain) {
    return OpenFailure(rep.path,
                       "chunk holds value " + std::to_string(max_value) +
                           " outside domain of column '" +
                           rep.schema.attribute(column).name + "'");
  }
  return Status::OK();
}

std::span<const uint16_t> ColumnarFile::ColumnSpan(uint32_t column) const {
  const Rep& rep = *rep_;
  IREDUCT_DCHECK(rep.zero_copy);
  if (rep.num_rows == 0) return {};
  return {reinterpret_cast<const uint16_t*>(rep.data +
                                            rep.column_starts[column]),
          static_cast<size_t>(rep.num_rows)};
}

namespace {

// Adapter that routes a Dataset onto the mmap'd column spans; holds the
// Rep so the mapping outlives every dataset copy.
class ColumnarBacking final : public DatasetBacking {
 public:
  ColumnarBacking(ColumnarFile file, size_t num_cols) : file_(std::move(file)) {
    columns_.reserve(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      columns_.push_back(file_.ColumnSpan(static_cast<uint32_t>(c)));
    }
  }
  size_t num_rows() const override {
    return static_cast<size_t>(file_.num_rows());
  }
  std::span<const uint16_t> column(size_t c) const override {
    return columns_[c];
  }

 private:
  ColumnarFile file_;
  std::vector<std::span<const uint16_t>> columns_;
};

}  // namespace

Result<Dataset> ColumnarFile::ToDataset() const {
  const Rep& rep = *rep_;
  const size_t num_cols = rep.schema.num_attributes();
  if (rep.num_rows > std::numeric_limits<size_t>::max() / 2) {
    return OpenFailure(rep.path, "row count exceeds addressable memory");
  }
  if (rep.zero_copy) {
    return Dataset::FromBacking(
        rep.schema, std::make_shared<ColumnarBacking>(*this, num_cols));
  }
  std::vector<std::vector<uint16_t>> columns(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    columns[c].resize(static_cast<size_t>(rep.num_rows));
    for (uint32_t b = 0; b < rep.num_blocks; ++b) {
      IREDUCT_RETURN_NOT_OK(DecodeChunk(
          c, b, columns[c].data() + static_cast<size_t>(b) * rep.block_rows));
    }
  }
  // FromColumns re-validates domains; cheap relative to decode and keeps
  // one construction path.
  return Dataset::FromColumns(rep.schema, std::move(columns));
}

Result<Dataset> ReadColumnar(const std::string& path) {
  IREDUCT_ASSIGN_OR_RETURN(ColumnarFile file, ColumnarFile::Open(path));
  return file.ToDataset();
}

}  // namespace ireduct
