// Columnar dataset engine benchmark: load-path and streaming-evaluation
// acceptance numbers for the binary columnar container (data/columnar.h).
//
// Section 1 — load: the cached census table is written as CSV, as a
// bit-packed columnar file, and as a zero-copy-layout columnar file; each
// is then loaded back (first read = cold-ish, best of TRIALS = warm) and
// the fingerprints are compared. The acceptance bar is a >=
// COLUMNAR_MIN_LOAD_SPEEDUP speedup of the warm zero-copy load over the
// CSV parse (default 5; 0 disables).
//
// Section 2 — streaming: the all-2-way true-table task is evaluated with
// MarginalSetEvaluator::Compute over the in-memory dataset and with
// ComputeStreaming over columnar files, swept over thread count × block
// size. Every result is compared byte-for-byte (memcmp of the count
// doubles) against per-spec Marginal::Compute; the bench exits nonzero on
// any mismatch. The acceptance bar is the best zero-copy streaming run
// landing within COLUMNAR_MAX_STREAM_RATIO of the in-memory pass at the
// same thread count (default 1.25; 0 disables).
//
// Section 3 — profiles: file sizes and load times for the generation
// profiles (census / zipf-heavy / sparse-events / wide-schema), showing
// how the packed and RLE encodings respond to different data shapes.
//
// Results land in BENCH_COLUMNAR.json in the working directory.
//
// Environment knobs:
//   CENSUS_ROWS                Section 1/2 dataset size (default 400000).
//   TRIALS                     timed repetitions per point (default 3).
//   COLUMNAR_THREADS           comma-separated Section 2 thread counts
//                              (default "1,2,8").
//   COLUMNAR_BLOCK_ROWS        comma-separated Section 2 block sizes
//                              (default "16384,65536").
//   COLUMNAR_PROFILE_ROWS      Section 3 rows per profile (default 200000).
//   COLUMNAR_MIN_LOAD_SPEEDUP  Section 1 gate; 0 disables (default 5).
//   COLUMNAR_MAX_STREAM_RATIO  Section 2 gate; 0 disables (default 1.25).
#include <unistd.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/census_generator.h"
#include "data/columnar.h"
#include "data/csv.h"
#include "eval/table_printer.h"
#include "marginals/marginal_evaluator.h"
#include "marginals/marginal_set.h"
#include "obs/json.h"

namespace {

using namespace ireduct;

double Seconds(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  IREDUCT_CHECK(::stat(path.c_str(), &st) == 0);
  return static_cast<uint64_t>(st.st_size);
}

// Temp workspace for the generated files; removed on exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/columnar_io.XXXXXX";
    IREDUCT_CHECK(::mkdtemp(tmpl) != nullptr);
    dir_ = tmpl;
  }
  ~TempDir() {
    for (const std::string& path : files_) ::unlink(path.c_str());
    ::rmdir(dir_.c_str());
  }
  std::string Path(const std::string& name) {
    files_.push_back(dir_ + "/" + name);
    return files_.back();
  }

 private:
  std::string dir_;
  std::vector<std::string> files_;
};

// Times `load` TRIALS times; records the first (cold-ish — the page cache
// is still warm from the write, but no parse state is) and best (warm)
// durations, checking every loaded dataset's fingerprint.
struct LoadTiming {
  double first_seconds = 0;
  double best_seconds = 0;
};

template <typename Fn>
LoadTiming TimeLoad(const Fn& load, uint64_t want_fingerprint) {
  LoadTiming t;
  const int trials = std::max(1, bench::Trials());
  for (int i = 0; i < trials; ++i) {
    const auto start = std::chrono::steady_clock::now();
    Result<Dataset> dataset = load();
    const double s = Seconds(start);
    IREDUCT_CHECK(dataset.ok());
    IREDUCT_CHECK(dataset->Fingerprint() == want_fingerprint);
    if (i == 0) t.first_seconds = s;
    t.best_seconds = i == 0 ? s : std::min(t.best_seconds, s);
  }
  return t;
}

void WriteLoadTiming(obs::JsonWriter& writer, const std::string& key,
                     const LoadTiming& t, uint64_t bytes) {
  writer.Key(key);
  writer.BeginObject();
  writer.Key("file_bytes");
  writer.UInt(bytes);
  writer.Key("first_seconds");
  writer.Double(t.first_seconds);
  writer.Key("best_seconds");
  writer.Double(t.best_seconds);
  writer.EndObject();
}

bool RunLoadSection(obs::JsonWriter& writer, TempDir& tmp,
                    const Dataset& dataset) {
  const uint64_t fingerprint = dataset.Fingerprint();
  const std::string csv_path = tmp.Path("census.csv");
  const std::string packed_path = tmp.Path("census.col");
  const std::string zc_path = tmp.Path("census_zc.col");
  IREDUCT_CHECK(WriteCsv(dataset, csv_path).ok());
  IREDUCT_CHECK(WriteColumnar(dataset, packed_path).ok());
  ColumnarWriteOptions zc;
  zc.zero_copy_layout = true;
  IREDUCT_CHECK(WriteColumnar(dataset, zc_path, zc).ok());

  const Schema& schema = dataset.schema();
  const LoadTiming csv_t = TimeLoad(
      [&] { return ReadCsv(schema, csv_path); }, fingerprint);
  const LoadTiming packed_t =
      TimeLoad([&] { return ReadColumnar(packed_path); }, fingerprint);
  const LoadTiming zc_t =
      TimeLoad([&] { return ReadColumnar(zc_path); }, fingerprint);

  const double speedup =
      zc_t.best_seconds > 0 ? csv_t.best_seconds / zc_t.best_seconds : 0.0;
  const double min_speedup =
      EnvNonNegativeDouble("COLUMNAR_MIN_LOAD_SPEEDUP", 5);
  const bool ok = min_speedup <= 0 || speedup >= min_speedup;

  writer.Key("load");
  writer.BeginObject();
  writer.Key("rows");
  writer.UInt(dataset.num_rows());
  writer.Key("fingerprint");
  writer.UInt(fingerprint);
  WriteLoadTiming(writer, "csv", csv_t, FileBytes(csv_path));
  WriteLoadTiming(writer, "packed", packed_t, FileBytes(packed_path));
  WriteLoadTiming(writer, "zero_copy", zc_t, FileBytes(zc_path));
  writer.Key("load_speedup");
  writer.Double(speedup);
  writer.Key("min_load_speedup");
  writer.Double(min_speedup);
  writer.EndObject();

  TablePrinter table({"format", "bytes", "first_s", "warm_s"});
  table.AddRow({"csv", std::to_string(FileBytes(csv_path)),
                TablePrinter::Cell(csv_t.first_seconds, 4),
                TablePrinter::Cell(csv_t.best_seconds, 4)});
  table.AddRow({"packed", std::to_string(FileBytes(packed_path)),
                TablePrinter::Cell(packed_t.first_seconds, 4),
                TablePrinter::Cell(packed_t.best_seconds, 4)});
  table.AddRow({"zero-copy", std::to_string(FileBytes(zc_path)),
                TablePrinter::Cell(zc_t.first_seconds, 4),
                TablePrinter::Cell(zc_t.best_seconds, 4)});
  std::cout << "Dataset load: CSV parse vs columnar decode vs zero-copy "
               "mmap (" << dataset.num_rows() << " rows)\n\n";
  table.Print(std::cout);
  std::cout << "\nwarm zero-copy load speedup over CSV: " << speedup
            << "x (required >= " << min_speedup << ")\n\n";
  if (!ok) {
    std::cerr << "LOAD SPEEDUP FAILURE: " << speedup << "x < required "
              << min_speedup << "x\n";
  }
  return ok;
}

bool SameCounts(const std::vector<Marginal>& a,
                const std::vector<Marginal>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].num_cells() != b[i].num_cells()) return false;
    if (std::memcmp(a[i].counts().data(), b[i].counts().data(),
                    a[i].num_cells() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct StreamResult {
  bool parity_ok = true;
  bool ratio_ok = true;
};

StreamResult RunStreamingSection(obs::JsonWriter& writer, TempDir& tmp,
                                 const Dataset& dataset) {
  StreamResult result;
  auto specs = AllKWaySpecs(dataset.schema(), 2);
  IREDUCT_CHECK(specs.ok());
  auto evaluator = MarginalSetEvaluator::Create(dataset.schema(), *specs);
  IREDUCT_CHECK(evaluator.ok());

  // Per-spec reference tables — the parity anchor for every path below.
  std::vector<Marginal> reference;
  reference.reserve(specs->size());
  for (const MarginalSpec& spec : *specs) {
    auto m = Marginal::Compute(dataset, spec);
    IREDUCT_CHECK(m.ok());
    reference.push_back(std::move(*m));
  }

  const std::vector<int> thread_list =
      EnvIntList("COLUMNAR_THREADS", {1, 2, 8});
  const std::vector<int> block_list =
      EnvIntList("COLUMNAR_BLOCK_ROWS", {16'384, 65'536});
  const int trials = std::max(1, bench::Trials());

  // One zero-copy and one packed file per block size: block geometry is a
  // write-time property.
  struct StreamFile {
    int block_rows;
    bool zero_copy;
    ColumnarFile file;
  };
  std::vector<StreamFile> files;
  for (const int block_rows : block_list) {
    for (const bool zero_copy : {true, false}) {
      ColumnarWriteOptions options;
      options.block_rows = static_cast<uint32_t>(block_rows);
      options.zero_copy_layout = zero_copy;
      const std::string path =
          tmp.Path("stream_" + std::to_string(block_rows) +
                   (zero_copy ? "_zc.col" : "_packed.col"));
      IREDUCT_CHECK(WriteColumnar(dataset, path, options).ok());
      auto file = ColumnarFile::Open(path);
      IREDUCT_CHECK(file.ok());
      files.push_back({block_rows, zero_copy, std::move(*file)});
    }
  }

  TablePrinter table({"threads", "block_rows", "layout", "inmem_s",
                      "stream_s", "ratio"});
  double best_zc_ratio = -1;
  writer.Key("streaming");
  writer.BeginArray();
  for (const int threads : thread_list) {
    ThreadPool pool(threads);
    ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;

    double inmem_s = 0;
    for (int i = 0; i < trials; ++i) {
      const auto start = std::chrono::steady_clock::now();
      auto inmem = evaluator->Compute(dataset, {}, pool_ptr);
      const double s = Seconds(start);
      IREDUCT_CHECK(inmem.ok());
      if (!SameCounts(reference, *inmem)) {
        std::cerr << "PARITY FAILURE: in-memory fused != per-marginal at "
                  << threads << " threads\n";
        result.parity_ok = false;
      }
      inmem_s = i == 0 ? s : std::min(inmem_s, s);
    }

    for (const StreamFile& sf : files) {
      double stream_s = 0;
      for (int i = 0; i < trials; ++i) {
        const auto start = std::chrono::steady_clock::now();
        auto streamed = evaluator->ComputeStreaming(sf.file, pool_ptr);
        const double s = Seconds(start);
        IREDUCT_CHECK(streamed.ok());
        if (!SameCounts(reference, *streamed)) {
          std::cerr << "PARITY FAILURE: streaming != per-marginal at "
                    << threads << " threads, block_rows=" << sf.block_rows
                    << ", layout=" << (sf.zero_copy ? "zero-copy" : "packed")
                    << "\n";
          result.parity_ok = false;
        }
        stream_s = i == 0 ? s : std::min(stream_s, s);
      }
      const double ratio = inmem_s > 0 ? stream_s / inmem_s : 0.0;
      if (sf.zero_copy && (best_zc_ratio < 0 || ratio < best_zc_ratio)) {
        best_zc_ratio = ratio;
      }
      const char* layout = sf.zero_copy ? "zero-copy" : "packed";
      table.AddRow({std::to_string(threads), std::to_string(sf.block_rows),
                    layout, TablePrinter::Cell(inmem_s, 4),
                    TablePrinter::Cell(stream_s, 4),
                    TablePrinter::Cell(ratio, 3)});
      writer.BeginObject();
      writer.Key("threads");
      writer.UInt(static_cast<uint64_t>(threads));
      writer.Key("block_rows");
      writer.UInt(static_cast<uint64_t>(sf.block_rows));
      writer.KV("layout", layout);
      writer.Key("inmem_seconds");
      writer.Double(inmem_s);
      writer.Key("stream_seconds");
      writer.Double(stream_s);
      writer.Key("ratio");
      writer.Double(ratio);
      writer.EndObject();
    }
  }
  writer.EndArray();

  const double max_ratio =
      EnvNonNegativeDouble("COLUMNAR_MAX_STREAM_RATIO", 1.25);
  result.ratio_ok =
      max_ratio <= 0 || (best_zc_ratio >= 0 && best_zc_ratio <= max_ratio);
  writer.Key("best_zero_copy_stream_ratio");
  writer.Double(best_zc_ratio);
  writer.Key("max_stream_ratio");
  writer.Double(max_ratio);

  std::cout << "Streaming vs in-memory all-2-way evaluation "
               "(memcmp-identical outputs enforced)\n\n";
  table.Print(std::cout);
  std::cout << "\nbest zero-copy streaming ratio: " << best_zc_ratio
            << "x of in-memory (required <= " << max_ratio << ")\n\n";
  if (!result.ratio_ok) {
    std::cerr << "STREAMING RATIO FAILURE: " << best_zc_ratio
              << "x > allowed " << max_ratio << "x\n";
  }
  return result;
}

void RunProfileSection(obs::JsonWriter& writer, TempDir& tmp) {
  const uint64_t rows = EnvInt64("COLUMNAR_PROFILE_ROWS", 200'000);
  TablePrinter table({"profile", "csv_bytes", "packed_bytes", "zc_bytes",
                      "csv_s", "packed_s", "zc_s"});
  writer.Key("profiles");
  writer.BeginArray();
  for (const DataProfile profile :
       {DataProfile::kCensus, DataProfile::kZipfHeavy,
        DataProfile::kSparseEvents, DataProfile::kWideSchema}) {
    const char* name = DataProfileName(profile);
    ProfileConfig config;
    config.profile = profile;
    config.rows = rows;
    auto dataset = GenerateProfile(config);
    IREDUCT_CHECK(dataset.ok());
    const uint64_t fingerprint = dataset->Fingerprint();

    const std::string csv_path = tmp.Path(std::string(name) + ".csv");
    const std::string packed_path = tmp.Path(std::string(name) + ".col");
    const std::string zc_path = tmp.Path(std::string(name) + "_zc.col");
    IREDUCT_CHECK(WriteCsv(*dataset, csv_path).ok());
    IREDUCT_CHECK(WriteColumnar(*dataset, packed_path).ok());
    ColumnarWriteOptions zc;
    zc.zero_copy_layout = true;
    IREDUCT_CHECK(WriteColumnar(*dataset, zc_path, zc).ok());

    const Schema& schema = dataset->schema();
    const LoadTiming csv_t =
        TimeLoad([&] { return ReadCsv(schema, csv_path); }, fingerprint);
    const LoadTiming packed_t =
        TimeLoad([&] { return ReadColumnar(packed_path); }, fingerprint);
    const LoadTiming zc_t =
        TimeLoad([&] { return ReadColumnar(zc_path); }, fingerprint);

    table.AddRow({name, std::to_string(FileBytes(csv_path)),
                  std::to_string(FileBytes(packed_path)),
                  std::to_string(FileBytes(zc_path)),
                  TablePrinter::Cell(csv_t.best_seconds, 4),
                  TablePrinter::Cell(packed_t.best_seconds, 4),
                  TablePrinter::Cell(zc_t.best_seconds, 4)});
    writer.BeginObject();
    writer.KV("profile", name);
    writer.Key("rows");
    writer.UInt(rows);
    writer.Key("fingerprint");
    writer.UInt(fingerprint);
    WriteLoadTiming(writer, "csv", csv_t, FileBytes(csv_path));
    WriteLoadTiming(writer, "packed", packed_t, FileBytes(packed_path));
    WriteLoadTiming(writer, "zero_copy", zc_t, FileBytes(zc_path));
    writer.EndObject();
  }
  writer.EndArray();

  std::cout << "Generation profiles: file sizes and warm load times ("
            << rows << " rows each)\n\n";
  table.Print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  bench::RegisterStandardMetrics();
  TempDir tmp;
  const Dataset& dataset = bench::GetCensus(CensusKind::kBrazil);

  std::string json;
  obs::JsonWriter writer(&json);
  writer.BeginObject();
  writer.KV("bench", "columnar_io");
  bench::WriteHostInfo(writer);
  const bool load_ok = RunLoadSection(writer, tmp, dataset);
  const StreamResult stream = RunStreamingSection(writer, tmp, dataset);
  RunProfileSection(writer, tmp);
  writer.Key("load_ok");
  writer.Bool(load_ok);
  writer.Key("stream_ok");
  writer.Bool(stream.ratio_ok);
  writer.Key("parity_ok");
  writer.Bool(stream.parity_ok);
  writer.EndObject();
  std::ofstream out("BENCH_COLUMNAR.json");
  out << json << "\n";
  std::cout << "Wrote BENCH_COLUMNAR.json\n";
  bench::EmitMetricsSnapshot("columnar_io");
  return load_ok && stream.ratio_ok && stream.parity_ok ? 0 : 1;
}
