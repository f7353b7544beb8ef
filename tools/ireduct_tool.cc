// ireduct_tool: command-line front end for the library.
//
//   ireduct_tool generate  --kind brazil|us --rows N --seed S --out FILE
//                          [--profile census|zipf-heavy|sparse-events|
//                           wide-schema] [--format csv|columnar]
//                          [--block-rows N] [--zero-copy 1] [--no-compress 1]
//       Writes a synthetic dataset. --profile picks the generation shape
//       (census replica by default); --format columnar writes the binary
//       columnar container (data/columnar.h) instead of CSV.
//
//   ireduct_tool csv2col   --in FILE.csv --out FILE.col
//                          [--kind brazil|us | --profile P]
//                          [--block-rows N] [--zero-copy 1] [--no-compress 1]
//       Converts a CSV to the columnar format. With --kind/--profile the
//       CSV is validated against that schema; otherwise attribute names
//       come from the header and each domain is inferred as max code + 1.
//       --zero-copy writes the raw16 mmap layout (bigger file, zero-cost
//       load); --no-compress keeps bit-packed chunks but skips byte-RLE.
//
//   ireduct_tool col2csv   --in FILE.col --out FILE.csv
//       Converts a columnar file back to CSV (inverse of csv2col).
//
//   ireduct_tool col-info  --in FILE.col
//       Prints a columnar file's schema, geometry, fingerprint, and
//       per-encoding chunk statistics.
//
//   ireduct_tool marginals --kind brazil|us --rows N --k 1|2
//                          --epsilon E --mechanism SPEC
//                          --out-dir DIR [--steps N] [--seed S]
//                          [--journal FILE [--resume 1]
//                           [--checkpoint-every N] [--checkpoint FILE]]
//       Publishes all k-way marginals under ε-DP and writes one CSV per
//       marginal plus answers.csv with confidence intervals. SPEC is a
//       registry mechanism spec — a bare name ("ireduct", "dwork", ...)
//       or name:key=val,key=val with parameter overrides, e.g.
//       "two_phase:epsilon=1.0" or
//       "ireduct:lambda_steps=16,objective=max_rel". Workload-derived
//       defaults (epsilon, delta, lambda_max, lambda_steps) fill any
//       declared parameter the spec leaves unset.
//
//       --journal FILE makes the run crash-safe: every ε grant is written
//       to an fsync'd write-ahead ledger journal before it is admitted,
//       and the run checkpoints its full state every N completed rounds
//       (default 8; checkpoint file defaults to FILE.ckpt). After a crash,
//       rerun with --resume 1: the ledger is recovered (a torn final
//       record counts as spent), the checkpoint is loaded, and the run
//       continues bit-identically to an uninterrupted one. A journal that
//       recorded grants but has no checkpoint is refused on resume, and a
//       fresh (non-resume) run refuses to overwrite an existing journal —
//       truncating a crashed run's ledger would double-spend its ε.
//
//   ireduct_tool compare   --kind brazil|us --rows N --k 1|2 --epsilon E
//                          [--mechanisms "SPEC;SPEC;..."] [--trials T]
//                          [--seed S]
//       Runs a suite of mechanism specs (default: the Section 6 paper
//       suite) and prints/exports a comparison table (comparison.csv in
//       the working directory).
//
//   ireduct_tool serve     --socket PATH [--ready-file FILE]
//                          [--data FILE.col | --profile P --kind K --rows N
//                           --seed S] [--dataset-name NAME] [--workers N]
//                          [--max-queue N] [--tenant-cap N] [--max-batch N]
//                          [--no-batch 1] [--journal-dir DIR]
//                          [--retry-after-ms N]
//       Runs the multi-tenant private query server (service/query_server.h)
//       over the NDJSON wire protocol (service/wire.h) on a Unix-domain
//       socket until SIGINT/SIGTERM. --data serves an existing columnar
//       file (zero-copy layouts are mmap-shared across tenants); otherwise
//       a dataset is generated from the usual generation flags.
//       --ready-file is written once the socket accepts (for scripts).
//       --journal-dir gives every tenant a crash-safe ε ledger journal.
//
//   ireduct_tool client    --socket PATH --op ping|stats|open|resume|
//                          budget|count|marginals [--id N] [--tenant T]
//                          [--dataset NAME] [--budget E] [--seed S]
//                          [--epsilon E] [--delta D] [--steps N]
//                          [--mechanism SPEC] [--specs "0,1;2"]
//                          [--predicates "0=3,1=1"]
//       Sends one wire request and prints the NDJSON response. Exit 0 on
//       an ok response, 1 on an error response (e.g. an admission shed,
//       which carries retry_after_ms and never consumed ε).
//
//   ireduct_tool list-mechanisms   (or --list-mechanisms anywhere)
//       Prints every registered mechanism with its privacy status and
//       accepted spec parameters.
//
// Observability flags (valid for every command, `--flag value` or
// `--flag=value`):
//   --log-level LEVEL   debug|info|warn|error|off (default warn, or the
//                       IREDUCT_LOG_LEVEL environment variable)
//   --trace-out FILE    write the event stream as Chrome trace_event JSON
//                       (open it in chrome://tracing or ui.perfetto.dev):
//                       turns on the event clock, so every round and
//                       session request is a span; the privacy ledger is
//                       attached under otherData.privacy_ledger
//   --metrics-out FILE  write the process metrics snapshot JSON (counters,
//                       gauges — including privacy.epsilon_spent —, and
//                       histograms)
//   --events-out FILE   write the structured event stream as JSONL, one
//                       event per line ({"seq":N,"type":"ireduct.round",...});
//                       see docs/OBSERVABILITY.md for the per-type schema
//   --prom-out FILE     write the metrics registry in Prometheus/OpenMetrics
//                       text exposition format (scrapeable via node_exporter
//                       textfile collector or any file-based pipeline)
//   --report-out FILE   write the unified run report JSON: run fields,
//                       per-query relative-error stats, the ε ledger, the
//                       metrics snapshot, and the event stream + summary,
//                       all in one deterministic document
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ireduct.h"

namespace {

using namespace ireduct;

// --flag value / --flag=value parsing into a map; returns false on
// malformed input.
bool ParseFlags(int argc, char** argv, int first,
                std::map<std::string, std::string>* flags) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "malformed flag: %s\n", arg.c_str());
      return false;
    }
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      (*flags)[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s is missing a value\n", arg.c_str());
      return false;
    }
    (*flags)[arg.substr(2)] = argv[++i];
  }
  return true;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& name, const std::string& fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

Result<Dataset> MakeCensus(const std::map<std::string, std::string>& flags) {
  CensusConfig config;
  const std::string kind = FlagOr(flags, "kind", "brazil");
  if (kind == "brazil") {
    config.kind = CensusKind::kBrazil;
  } else if (kind == "us") {
    config.kind = CensusKind::kUs;
  } else {
    return Status::InvalidArgument("--kind must be brazil or us");
  }
  config.rows = std::strtoull(FlagOr(flags, "rows", "100000").c_str(),
                              nullptr, 10);
  config.seed =
      std::strtoull(FlagOr(flags, "seed", "2011").c_str(), nullptr, 10);
  return GenerateCensus(config);
}

Result<CensusKind> ParseKindFlag(
    const std::map<std::string, std::string>& flags) {
  const std::string kind = FlagOr(flags, "kind", "brazil");
  if (kind == "brazil") return CensusKind::kBrazil;
  if (kind == "us") return CensusKind::kUs;
  return Status::InvalidArgument("--kind must be brazil or us");
}

// Builds a dataset from the shared generation flags (--profile, --kind,
// --rows, --seed); plain census when --profile is absent.
Result<Dataset> MakeProfileDataset(
    const std::map<std::string, std::string>& flags) {
  ProfileConfig config;
  IREDUCT_ASSIGN_OR_RETURN(config.profile,
                           ParseDataProfile(FlagOr(flags, "profile",
                                                   "census")));
  IREDUCT_ASSIGN_OR_RETURN(config.kind, ParseKindFlag(flags));
  config.rows = std::strtoull(FlagOr(flags, "rows", "100000").c_str(),
                              nullptr, 10);
  config.seed =
      std::strtoull(FlagOr(flags, "seed", "2011").c_str(), nullptr, 10);
  return GenerateProfile(config);
}

// Shared --block-rows / --zero-copy / --no-compress parsing.
ColumnarWriteOptions ColumnarOptionsFromFlags(
    const std::map<std::string, std::string>& flags) {
  ColumnarWriteOptions options;
  options.block_rows = static_cast<uint32_t>(std::strtoul(
      FlagOr(flags, "block-rows", "65536").c_str(), nullptr, 10));
  options.zero_copy_layout = FlagOr(flags, "zero-copy", "0") != "0";
  options.compress = FlagOr(flags, "no-compress", "0") == "0";
  return options;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  auto dataset = MakeProfileDataset(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const std::string format = FlagOr(flags, "format", "csv");
  const std::string out = FlagOr(
      flags, "out", format == "columnar" ? "census.col" : "census.csv");
  Status s;
  if (format == "csv") {
    s = WriteCsv(*dataset, out);
  } else if (format == "columnar") {
    s = WriteColumnar(*dataset, out, ColumnarOptionsFromFlags(flags));
  } else {
    std::fprintf(stderr, "--format must be csv or columnar\n");
    return 2;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu rows to %s\n", dataset->num_rows(), out.c_str());
  return 0;
}

int CmdCsv2Col(const std::map<std::string, std::string>& flags) {
  const std::string in = FlagOr(flags, "in", "");
  const std::string out = FlagOr(flags, "out", "");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "csv2col needs --in FILE.csv and --out FILE.col\n");
    return 2;
  }
  Result<Dataset> dataset = Status::Internal("unreachable");
  if (flags.count("kind") > 0 || flags.count("profile") > 0) {
    auto profile = ParseDataProfile(FlagOr(flags, "profile", "census"));
    if (!profile.ok()) {
      std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
      return 1;
    }
    auto kind = ParseKindFlag(flags);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 1;
    }
    auto schema = ProfileSchema(*profile, *kind);
    if (!schema.ok()) {
      std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
      return 1;
    }
    dataset = ReadCsv(*schema, in);
  } else {
    dataset = ReadCsvInferred(in);
  }
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  if (Status s = WriteColumnar(*dataset, out, ColumnarOptionsFromFlags(flags));
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu rows to %s\n", dataset->num_rows(), out.c_str());
  return 0;
}

int CmdCol2Csv(const std::map<std::string, std::string>& flags) {
  const std::string in = FlagOr(flags, "in", "");
  const std::string out = FlagOr(flags, "out", "");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "col2csv needs --in FILE.col and --out FILE.csv\n");
    return 2;
  }
  auto dataset = ReadColumnar(in);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  if (Status s = WriteCsv(*dataset, out); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu rows to %s\n", dataset->num_rows(), out.c_str());
  return 0;
}

int CmdColInfo(const std::map<std::string, std::string>& flags) {
  const std::string in = FlagOr(flags, "in", "");
  if (in.empty()) {
    std::fprintf(stderr, "col-info needs --in FILE.col\n");
    return 2;
  }
  auto file = ColumnarFile::Open(in);
  if (!file.ok()) {
    std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
    return 1;
  }
  const Schema& schema = file->schema();
  std::printf("%s: %llu rows x %zu columns, %u blocks of %u rows, %s\n",
              in.c_str(),
              static_cast<unsigned long long>(file->num_rows()),
              schema.num_attributes(), file->num_blocks(),
              file->block_rows(),
              file->zero_copy() ? "zero-copy layout" : "packed layout");
  std::printf("file bytes:  %llu\n",
              static_cast<unsigned long long>(file->file_bytes()));
  std::printf("fingerprint: %016llx\n",
              static_cast<unsigned long long>(file->fingerprint()));
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    uint64_t encoded = 0;
    size_t raw = 0;
    size_t packed = 0;
    size_t rle = 0;
    for (uint32_t b = 0; b < file->num_blocks(); ++b) {
      encoded += file->chunk_bytes(static_cast<uint32_t>(c), b);
      switch (file->chunk_encoding(static_cast<uint32_t>(c), b)) {
        case ChunkEncoding::kRaw16:
          ++raw;
          break;
        case ChunkEncoding::kPacked:
          ++packed;
          break;
        case ChunkEncoding::kPackedRle:
          ++rle;
          break;
      }
    }
    std::printf(
        "  %-16s domain %-6u width %2u bits, %8llu bytes "
        "(raw %zu / packed %zu / rle %zu)\n",
        schema.attribute(c).name.c_str(), schema.attribute(c).domain_size,
        file->bit_width(static_cast<uint32_t>(c)),
        static_cast<unsigned long long>(encoded), raw, packed, rle);
  }
  return 0;
}

// Registry dispatch with workload-derived defaults: the user's spec is
// validated as written, then epsilon/delta/lambda_max/lambda_steps are
// filled for whichever of those parameters the mechanism declares and the
// spec leaves unset.
Result<MechanismOutput> RunSpecMechanism(
    const MechanismSpec& user_spec, const Workload& workload, double epsilon,
    double delta, double lambda_max, int steps, BitGen& gen,
    const Mechanism::ResumableHooks* hooks = nullptr) {
  IREDUCT_ASSIGN_OR_RETURN(const Mechanism* mech,
                           MechanismRegistry::Global().Get(user_spec.name()));
  IREDUCT_RETURN_NOT_OK(mech->ValidateSpec(user_spec));
  MechanismSpec spec = user_spec;
  mech->SetSpecDefault(&spec, "epsilon", epsilon);
  mech->SetSpecDefault(&spec, "delta", delta);
  mech->SetSpecDefault(&spec, "lambda_max", lambda_max);
  mech->SetSpecDefault(&spec, "lambda_steps",
                       std::string_view(std::to_string(steps)));
  if (hooks != nullptr) {
    return mech->RunResumable(workload, spec, gen, *hooks);
  }
  return mech->Run(workload, spec, gen);
}

// Crash-safety state for a journaled `marginals` run: the write-ahead
// ledger journal, the accountant it is attached to, the checkpoint sink
// chain, and (on --resume) the loaded checkpoint.
struct CrashSafeRun {
  std::unique_ptr<LedgerJournal> journal;
  std::unique_ptr<PrivacyAccountant> accountant;
  std::unique_ptr<FileCheckpointSink> file_sink;
  std::unique_ptr<JournalingCheckpointSink> journaled_sink;
  std::unique_ptr<RunCheckpoint> resume_state;
  Mechanism::ResumableHooks hooks;
};

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// Builds the journal + checkpoint plumbing for CmdMarginals. On resume the
// ledger is recovered first (torn tail counted as spent, then compacted),
// so the accountant can never under-report what the crashed run granted.
Result<CrashSafeRun> SetUpCrashSafeRun(const std::string& journal_path,
                                       const std::string& checkpoint_path,
                                       uint64_t checkpoint_every,
                                       bool resume, double epsilon) {
  CrashSafeRun run;
  if (resume) {
    IREDUCT_ASSIGN_OR_RETURN(const LedgerJournal::Recovered recovered,
                             LedgerJournal::Recover(journal_path));
    IREDUCT_ASSIGN_OR_RETURN(PrivacyAccountant accountant,
                             LedgerJournal::Replay(recovered));
    run.accountant =
        std::make_unique<PrivacyAccountant>(std::move(accountant));
    if (recovered.torn_tail) {
      std::fprintf(stderr,
                   "note: journal ended in a torn grant; counting its "
                   "epsilon %g as spent\n",
                   recovered.torn_epsilon);
    }
    IREDUCT_ASSIGN_OR_RETURN(
        LedgerJournal journal,
        recovered.torn_tail
            ? LedgerJournal::RewriteCompacted(journal_path, recovered)
            : LedgerJournal::OpenForAppend(journal_path));
    run.journal = std::make_unique<LedgerJournal>(std::move(journal));
    if (FileExists(checkpoint_path)) {
      IREDUCT_ASSIGN_OR_RETURN(RunCheckpoint checkpoint,
                               FileCheckpointSink::Load(checkpoint_path));
      run.resume_state =
          std::make_unique<RunCheckpoint>(std::move(checkpoint));
      run.hooks.resume = run.resume_state.get();
    } else if (!recovered.charges.empty()) {
      // Grants were journaled but no checkpoint survived: re-executing
      // from scratch cannot be proven identical to what was paid for.
      return Status::FailedPrecondition(
          "journal '" + journal_path + "' records grants but no " +
          "checkpoint exists at '" + checkpoint_path +
          "'; refusing to re-run the paid-for release from scratch");
    }
  } else {
    // A fresh run truncates the journal. An existing file here is almost
    // always a crashed run whose --resume was forgotten; truncating it
    // would destroy the spent-ε record and double-spend the budget — the
    // exact hazard the journal exists to prevent. Refuse instead.
    if (FileExists(journal_path)) {
      return Status::FailedPrecondition(
          "journal '" + journal_path +
          "' already exists; pass --resume 1 to continue that run, or "
          "delete the file to explicitly discard its ledger");
    }
    IREDUCT_ASSIGN_OR_RETURN(PrivacyAccountant accountant,
                             PrivacyAccountant::Create(epsilon));
    run.accountant =
        std::make_unique<PrivacyAccountant>(std::move(accountant));
    IREDUCT_ASSIGN_OR_RETURN(LedgerJournal journal,
                             LedgerJournal::Create(journal_path, epsilon));
    run.journal = std::make_unique<LedgerJournal>(std::move(journal));
  }
  run.accountant->AttachJournal(run.journal.get());
  run.file_sink = std::make_unique<FileCheckpointSink>(checkpoint_path);
  run.journaled_sink = std::make_unique<JournalingCheckpointSink>(
      run.accountant.get(), run.file_sink.get());
  run.hooks.checkpoint.sink = run.journaled_sink.get();
  run.hooks.checkpoint.every = checkpoint_every;
  return run;
}

int CmdListMechanisms() {
  const MechanismRegistry& registry = MechanismRegistry::Global();
  const std::vector<std::string> names = registry.Names();
  std::printf("registered mechanisms (%zu):\n", names.size());
  for (const std::string& name : names) {
    const MechanismInfo info = registry.Find(name)->Describe();
    std::printf("  %-13s %-13s %-12s %s\n", info.name.c_str(),
                info.display_name.c_str(),
                info.privacy == MechanismPrivacy::kPrivate ? "private"
                                                           : "NON-PRIVATE",
                info.summary.c_str());
    for (const MechanismParamDoc& p : info.params) {
      if (p.default_value.empty()) {
        std::printf("      %-22s %s\n", p.key.c_str(), p.doc.c_str());
      } else {
        std::printf("      %-22s %s [default %s]\n", p.key.c_str(),
                    p.doc.c_str(), p.default_value.c_str());
      }
    }
  }
  return 0;
}

int CmdMarginals(const std::map<std::string, std::string>& flags,
                 RunReport* report) {
  auto dataset = MakeCensus(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const int k = std::atoi(FlagOr(flags, "k", "1").c_str());
  auto specs = AllKWaySpecs(dataset->schema(), k);
  if (!specs.ok()) {
    std::fprintf(stderr, "%s\n", specs.status().ToString().c_str());
    return 1;
  }
  auto marginals = ComputeMarginals(*dataset, *specs);
  auto mw = MarginalWorkload::Create(std::move(*marginals));
  if (!mw.ok()) {
    std::fprintf(stderr, "%s\n", mw.status().ToString().c_str());
    return 1;
  }

  const double epsilon =
      std::strtod(FlagOr(flags, "epsilon", "0.01").c_str(), nullptr);
  const double n = static_cast<double>(dataset->num_rows());
  const double delta = 1e-4 * n;
  const int steps = std::atoi(FlagOr(flags, "steps", "200").c_str());
  BitGen gen(std::strtoull(FlagOr(flags, "seed", "1").c_str(), nullptr, 10));
  const std::string mechanism_text = FlagOr(flags, "mechanism", "ireduct");
  auto spec = MechanismSpec::Parse(mechanism_text);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  const std::string mechanism = spec->name();

  report->SetRunField("command", "marginals");
  report->SetRunField("mechanism", spec->ToString());
  report->SetRunField("kind", FlagOr(flags, "kind", "brazil"));
  report->SetRunField("rows", static_cast<uint64_t>(dataset->num_rows()));
  report->SetRunField("k", static_cast<uint64_t>(k));
  report->SetRunField(
      "seed", static_cast<uint64_t>(std::strtoull(
                  FlagOr(flags, "seed", "1").c_str(), nullptr, 10)));
  report->SetRunField("epsilon", epsilon);
  report->SetRunField("delta", delta);
  report->SetRunField("steps", static_cast<uint64_t>(steps));

  // --journal switches the run to crash-safe mode: write-ahead ledger
  // journal + periodic checkpoints, resumable with --resume 1.
  const std::string journal_path = FlagOr(flags, "journal", "");
  CrashSafeRun crash_safe;
  if (!journal_path.empty()) {
    const std::string checkpoint_path =
        FlagOr(flags, "checkpoint", journal_path + ".ckpt");
    const uint64_t checkpoint_every = std::strtoull(
        FlagOr(flags, "checkpoint-every", "8").c_str(), nullptr, 10);
    const std::string resume = FlagOr(flags, "resume", "0");
    auto prepared =
        SetUpCrashSafeRun(journal_path, checkpoint_path, checkpoint_every,
                          resume != "0" && !resume.empty(), epsilon);
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
      return 1;
    }
    crash_safe = std::move(*prepared);
  }

  auto out = RunSpecMechanism(
      *spec, mw->workload(), epsilon, delta, n / 10, steps, gen,
      journal_path.empty() ? nullptr : &crash_safe.hooks);
  if (!out.ok()) {
    std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
    return 1;
  }

  if (crash_safe.accountant != nullptr) {
    // Journaled runs already charged up to the last checkpoint boundary;
    // one final top-up makes the ledger equal the run's exact spend.
    if (out->is_private()) {
      const double remainder =
          out->epsilon_spent - crash_safe.accountant->spent();
      if (remainder > 0) {
        if (Status s = crash_safe.accountant->Charge(
                "marginals (" + mechanism + ") final", remainder);
            !s.ok()) {
          std::fprintf(stderr, "%s\n", s.ToString().c_str());
          return 1;
        }
      }
    }
    report->AttachLedger(*crash_safe.accountant);
  } else if (out->is_private() && out->epsilon_spent > 0) {
    // Mirror the release through an accountant so the run carries a
    // ledger: the privacy.epsilon_spent gauge tracks the charge, and the
    // ledger JSON rides into the trace under otherData.privacy_ledger.
    // Non-private baselines (oracle, proportional) stay unaccounted. A
    // spec that pins its own budget (e.g. "two_phase:epsilon=0.5") is
    // authorized by that spec, so the mirror's budget covers whatever the
    // mechanism actually spent — budget *enforcement* lives in
    // PrivateQuerySession, not here.
    auto accountant =
        PrivacyAccountant::Create(std::max(epsilon, out->epsilon_spent));
    if (accountant.ok()) {
      if (Status s = accountant->Charge("marginals (" + mechanism + ")",
                                        out->epsilon_spent);
          !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      report->AttachLedger(*accountant);
    }
  }

  report->SetRunField("epsilon_spent", out->epsilon_spent);
  report->SetErrors(mw->workload(), out->answers, delta);

  const std::string dir = FlagOr(flags, "out-dir", ".");
  auto noisy = mw->ToMarginals(out->answers);
  if (!noisy.ok()) {
    std::fprintf(stderr, "%s\n", noisy.status().ToString().c_str());
    return 1;
  }
  if (Status s = WriteMarginalsCsv(*noisy, dataset->schema(), dir,
                                   "marginal");
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::ofstream answers(dir + "/answers.csv");
  if (Status s = WriteAnswersCsv(mw->workload(), *out, 0.95, answers);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "published %zu marginals (epsilon %.5f, overall error %.4f) to %s\n",
      noisy->size(), out->epsilon_spent,
      OverallError(mw->workload(), out->answers, delta), dir.c_str());
  return 0;
}

int CmdCompare(const std::map<std::string, std::string>& flags) {
  auto dataset = MakeCensus(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const int k = std::atoi(FlagOr(flags, "k", "1").c_str());
  auto specs = AllKWaySpecs(dataset->schema(), k);
  auto marginals = ComputeMarginals(*dataset, *specs);
  auto mw = MarginalWorkload::Create(std::move(*marginals));
  if (!mw.ok()) {
    std::fprintf(stderr, "%s\n", mw.status().ToString().c_str());
    return 1;
  }
  const double epsilon =
      std::strtod(FlagOr(flags, "epsilon", "0.01").c_str(), nullptr);
  const double n = static_cast<double>(dataset->num_rows());
  const double delta = 1e-4 * n;
  const int trials = std::atoi(FlagOr(flags, "trials", "3").c_str());
  const uint64_t seed =
      std::strtoull(FlagOr(flags, "seed", "1").c_str(), nullptr, 10);

  // Semicolon-separated mechanism specs; default is the Section 6 suite.
  std::vector<std::string> spec_texts;
  {
    std::string list = FlagOr(flags, "mechanisms",
                              "oracle;ireduct;two_phase;iresamp;dwork");
    size_t start = 0;
    while (start <= list.size()) {
      const size_t semi = list.find(';', start);
      const std::string item = list.substr(
          start, semi == std::string::npos ? std::string::npos
                                           : semi - start);
      if (!item.empty()) spec_texts.push_back(item);
      if (semi == std::string::npos) break;
      start = semi + 1;
    }
  }

  std::vector<ComparisonRow> rows;
  TablePrinter table({"mechanism", "overall_error", "max_rel_error",
                      "mean_abs_error", "epsilon"});
  for (const std::string& text : spec_texts) {
    auto spec = MechanismSpec::Parse(text);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    const std::string name = spec->ToString();
    ComparisonRow mean_row;
    mean_row.mechanism = name;
    for (int t = 0; t < trials; ++t) {
      BitGen gen(seed + 31 * t);
      auto out = RunSpecMechanism(*spec, mw->workload(), epsilon, delta,
                                  n / 10, 200, gen);
      if (!out.ok()) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(),
                     out.status().ToString().c_str());
        return 1;
      }
      const ComparisonRow row = Evaluate(name, mw->workload(), *out, delta);
      mean_row.overall_error += row.overall_error / trials;
      mean_row.max_relative_error += row.max_relative_error / trials;
      mean_row.mean_absolute_error += row.mean_absolute_error / trials;
      mean_row.epsilon_spent = row.epsilon_spent;
    }
    rows.push_back(mean_row);
    table.AddRow({mean_row.mechanism,
                  TablePrinter::Cell(mean_row.overall_error, 5),
                  TablePrinter::Cell(mean_row.max_relative_error, 5),
                  TablePrinter::Cell(mean_row.mean_absolute_error, 5),
                  TablePrinter::Cell(mean_row.epsilon_spent, 4)});
  }
  table.Print(std::cout);
  std::ofstream csv("comparison.csv");
  if (Status s = WriteComparisonCsv(rows, csv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote comparison.csv\n");
  return 0;
}

// ---- serve / client: the NDJSON wire protocol over a Unix socket ----

std::atomic<bool> g_serve_stop{false};

void HandleStopSignal(int) { g_serve_stop.store(true); }

// "0,1;2" → {{0,1},{2}} (semicolon-separated specs, comma-separated
// attribute indices).
Result<std::vector<MarginalSpec>> ParseSpecsArg(const std::string& text) {
  std::vector<MarginalSpec> specs;
  std::string token;
  MarginalSpec current;
  auto flush_attr = [&]() -> Status {
    if (token.empty()) {
      return Status::InvalidArgument("--specs has an empty attribute index");
    }
    char* end = nullptr;
    const unsigned long v = std::strtoul(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0') {
      return Status::InvalidArgument("--specs index '" + token +
                                     "' is not a number");
    }
    current.attributes.push_back(static_cast<uint32_t>(v));
    token.clear();
    return Status::OK();
  };
  for (const char c : text) {
    if (c == ',') {
      IREDUCT_RETURN_NOT_OK(flush_attr());
    } else if (c == ';') {
      IREDUCT_RETURN_NOT_OK(flush_attr());
      specs.push_back(std::move(current));
      current = MarginalSpec{};
    } else {
      token.push_back(c);
    }
  }
  IREDUCT_RETURN_NOT_OK(flush_attr());
  specs.push_back(std::move(current));
  return specs;
}

// "0=3,1=1" → predicates {attr 0 == 3, attr 1 == 1}. Empty counts all rows.
Result<ConjunctiveQuery> ParsePredicatesArg(const std::string& text) {
  ConjunctiveQuery query;
  if (text.empty()) return query;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string pair = text.substr(start, comma - start);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("--predicates entry '" + pair +
                                     "' is not attr=value");
    }
    query.predicates.push_back(
        {static_cast<uint32_t>(std::strtoul(pair.substr(0, eq).c_str(),
                                            nullptr, 10)),
         static_cast<uint16_t>(std::strtoul(pair.substr(eq + 1).c_str(),
                                            nullptr, 10))});
    start = comma + 1;
  }
  return query;
}

int CmdServe(const std::map<std::string, std::string>& flags) {
  const std::string socket = FlagOr(flags, "socket", "");
  if (socket.empty()) {
    std::fprintf(stderr, "serve requires --socket PATH\n");
    return 2;
  }
  QueryServerConfig config;
  config.workers = std::atoi(FlagOr(flags, "workers", "1").c_str());
  config.max_queue =
      std::strtoull(FlagOr(flags, "max-queue", "256").c_str(), nullptr, 10);
  config.max_inflight_per_tenant =
      std::atoi(FlagOr(flags, "tenant-cap", "8").c_str());
  config.max_batch =
      std::strtoull(FlagOr(flags, "max-batch", "16").c_str(), nullptr, 10);
  config.batching = FlagOr(flags, "no-batch", "0") == "0";
  config.journal_dir = FlagOr(flags, "journal-dir", "");
  config.retry_after_ms =
      std::atoi(FlagOr(flags, "retry-after-ms", "50").c_str());
  auto server = QueryServer::Create(config);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  const std::string dataset_name = FlagOr(flags, "dataset-name", "default");
  const std::string data = FlagOr(flags, "data", "");
  Status load = Status::OK();
  if (!data.empty()) {
    load = (*server)->AddDatasetFile(dataset_name, data);
  } else {
    auto dataset = MakeProfileDataset(flags);
    load = dataset.ok()
               ? (*server)->AddDataset(dataset_name, std::move(*dataset))
               : dataset.status();
  }
  if (!load.ok()) {
    std::fprintf(stderr, "%s\n", load.ToString().c_str());
    return 1;
  }
  auto wire = WireServer::Start(server->get(), socket);
  if (!wire.ok()) {
    std::fprintf(stderr, "%s\n", wire.status().ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  // The ready file signals scripted callers (tools/check.sh, CI smoke
  // tests) that the socket is accepting; written after Start so a reader
  // never races the bind.
  if (const std::string ready = FlagOr(flags, "ready-file", "");
      !ready.empty()) {
    std::ofstream file(ready, std::ios::trunc);
    file << socket << '\n';
    if (!file.flush()) {
      std::fprintf(stderr, "failed writing ready file %s\n", ready.c_str());
      return 1;
    }
  }
  std::printf("serving dataset '%s' on %s (workers=%d queue=%zu batch=%s)\n",
              dataset_name.c_str(), socket.c_str(), config.workers,
              config.max_queue, config.batching ? "on" : "off");
  std::fflush(stdout);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  (*wire)->Stop();
  std::printf("%s\n", ServerStatsToJson((*server)->Stats()).c_str());
  return 0;
}

int CmdClient(const std::map<std::string, std::string>& flags) {
  const std::string socket = FlagOr(flags, "socket", "");
  if (socket.empty()) {
    std::fprintf(stderr, "client requires --socket PATH\n");
    return 2;
  }
  WireRequest request;
  request.id = std::strtoull(FlagOr(flags, "id", "1").c_str(), nullptr, 10);
  request.op = FlagOr(flags, "op", "ping");
  request.tenant = FlagOr(flags, "tenant", "");
  request.dataset = FlagOr(flags, "dataset", "default");
  request.budget = std::strtod(FlagOr(flags, "budget", "1").c_str(), nullptr);
  request.seed =
      std::strtoull(FlagOr(flags, "seed", "1").c_str(), nullptr, 10);
  request.epsilon =
      std::strtod(FlagOr(flags, "epsilon", "0.1").c_str(), nullptr);
  request.delta = std::strtod(FlagOr(flags, "delta", "0.05").c_str(), nullptr);
  request.lambda_steps = std::atoi(FlagOr(flags, "steps", "200").c_str());
  request.mechanism = FlagOr(flags, "mechanism", "ireduct");
  if (const std::string specs = FlagOr(flags, "specs", ""); !specs.empty()) {
    auto parsed = ParseSpecsArg(specs);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    request.specs = std::move(*parsed);
  }
  if (request.op == "count") {
    auto parsed = ParsePredicatesArg(FlagOr(flags, "predicates", ""));
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    request.query = std::move(*parsed);
  }
  auto client = WireClient::Connect(socket);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  auto response = client->Call(request);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", response->ToJson().c_str());
  return response->ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ireduct_tool generate|csv2col|col2csv|col-info|"
               "marginals|compare|serve|client|list-mechanisms "
               "[--flag value ...]\n"
               "[--log-level L] "
               "[--trace-out F] [--metrics-out F] [--events-out F] "
               "[--prom-out F] [--report-out F] work with every command."
               "\n(see the header comment of tools/ireduct_tool.cc for "
               "details)\n");
  return 2;
}

// Pops `name` from `flags`, returning its value or "".
std::string TakeFlag(std::map<std::string, std::string>* flags,
                     const std::string& name) {
  const auto it = flags->find(name);
  if (it == flags->end()) return "";
  std::string value = it->second;
  flags->erase(it);
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  // --list-mechanisms is valueless and position-independent; honor it
  // before flag parsing so `ireduct_tool --list-mechanisms` just works.
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--list-mechanisms") ||
        !std::strcmp(argv[i], "list-mechanisms")) {
      return CmdListMechanisms();
    }
  }
  if (argc < 2) return Usage();
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, 2, &flags)) return 2;
  const std::string command = argv[1];

  if (const std::string level = TakeFlag(&flags, "log-level");
      !level.empty()) {
    auto parsed = obs::ParseLogLevel(level);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    obs::SetLogLevel(*parsed);
  }
  const std::string trace_out = TakeFlag(&flags, "trace-out");
  const std::string metrics_out = TakeFlag(&flags, "metrics-out");
  const std::string events_out = TakeFlag(&flags, "events-out");
  const std::string prom_out = TakeFlag(&flags, "prom-out");
  const std::string report_out = TakeFlag(&flags, "report-out");
  // Static so instrumentation can reach it for the whole run; events flow
  // only while a log is installed, and only the edge that asked for an
  // artifact pays. The trace is an export of the same stream, recorded
  // with the wall clock on so spans carry their durations.
  static obs::EventLog event_log;
  if (!events_out.empty() || !report_out.empty() || !trace_out.empty()) {
#if !IREDUCT_ENABLE_TRACING
    std::fprintf(stderr,
                 "note: built with IREDUCT_ENABLE_TRACING=OFF; the event "
                 "stream and trace will be empty\n");
#endif
    if (!trace_out.empty()) event_log.set_wall_clock(true);
    obs::EventLog::Install(&event_log);
  }
  // Pre-register the full metric schema so artifacts list every metric the
  // build knows about, not just the ones this particular run touched.
  obs::RegisterStandardMetrics();

  RunReport report(command);
  int rc;
  if (command == "generate") {
    rc = CmdGenerate(flags);
  } else if (command == "csv2col") {
    rc = CmdCsv2Col(flags);
  } else if (command == "col2csv") {
    rc = CmdCol2Csv(flags);
  } else if (command == "col-info") {
    rc = CmdColInfo(flags);
  } else if (command == "marginals") {
    rc = CmdMarginals(flags, &report);
  } else if (command == "compare") {
    rc = CmdCompare(flags);
  } else if (command == "serve") {
    rc = CmdServe(flags);
  } else if (command == "client") {
    rc = CmdClient(flags);
  } else {
    return Usage();
  }

  // Emit observability artifacts even for failed runs — a trace of a
  // failure is exactly when you want one.
  auto write_json = [](const std::string& path, const std::string& body,
                       const char* what) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << body << '\n';
    if (!file.flush()) {
      std::fprintf(stderr, "failed writing %s to %s\n", what, path.c_str());
      return false;
    }
    return true;
  };
  // Like the report, the trace exports a copy of the stream taken before
  // the --events-out drain.
  if (!trace_out.empty()) {
    const std::vector<std::string> lines = event_log.SnapshotLines();
    std::map<std::string, std::string> other_data;
    if (report.ledger_json().has_value()) {
      other_data.emplace("privacy_ledger", *report.ledger_json());
    }
    if (!write_json(trace_out, obs::ChromeTraceJson(lines, other_data),
                    "trace")) {
      return 1;
    }
    std::printf("wrote trace (%zu events) to %s\n", lines.size(),
                trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    if (!write_json(metrics_out,
                    obs::MetricsRegistry::Global().SnapshotJson(),
                    "metrics")) {
      return 1;
    }
    std::printf("wrote metrics snapshot to %s\n", metrics_out.c_str());
  }
  // The report snapshots the event stream *before* --events-out drains it,
  // so a failed (or fault-injected) drain cannot corrupt the report.
  if (!report_out.empty()) {
    report.AttachMetrics();
    if (obs::EventLog* events = obs::EventLog::Get()) {
      report.AttachEvents(*events);
    }
    if (Status s = report.WriteFile(report_out); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote run report to %s\n", report_out.c_str());
  }
  if (!events_out.empty()) {
    const size_t buffered = event_log.size();
    if (Status s = event_log.WriteFile(events_out); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
#if !IREDUCT_ENABLE_TRACING
    // The stub drains nothing; still leave the (empty) artifact behind so
    // downstream tooling finds the file it asked for.
    std::ofstream(events_out, std::ios::trunc);
#endif
    std::printf("wrote %zu events to %s\n", buffered, events_out.c_str());
  }
  if (!prom_out.empty()) {
    if (Status s = obs::WritePrometheusFile(prom_out); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote prometheus exposition to %s\n", prom_out.c_str());
  }
  return rc;
}
