// Unified mechanism interface + registry: every publication algorithm in
// the library as a pluggable, config-driven component.
//
// The paper evaluates six mechanisms side by side (Dwork, Proportional,
// Oracle, TwoPhase, iResamp, iReduct — Sections 3–6); the adaptive- and
// matrix-mechanism lines of related work show that *selecting* a mechanism
// per workload is itself a first-class operation. This header provides the
// plumbing for that: a polymorphic `Mechanism` (Describe / ValidateSpec /
// Run), a string-keyed `MechanismRegistry` pre-populated with every
// built-in algorithm, and a `MechanismSpec` config object parsed from
// compact `name:key=val,key=val` strings or JSON documents. Layers above
// (PrivateQuerySession, ireduct_tool, the figure benches) dispatch through
// the registry, so a new mechanism registered here is immediately
// routable, benchmarkable and servable without touching any of them.
//
// The registered adapters are thin wrappers over the existing free
// functions (`RunIReduct`, `RunDwork`, ...) and produce byte-identical
// `MechanismOutput` to a direct call at the same seed — enforced by
// tests/algorithms/mechanism_parity_test.cc — so both entry styles stay
// interchangeable.
#ifndef IREDUCT_ALGORITHMS_MECHANISM_REGISTRY_H_
#define IREDUCT_ALGORITHMS_MECHANISM_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/mechanism.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "dp/checkpoint.h"
#include "dp/workload.h"

namespace ireduct {

/// Typed key/value configuration for one mechanism run: the registry key
/// plus parameter overrides. Parameters are stored as strings (in
/// insertion order) and parsed on access, so a spec round-trips through
/// its text form without loss — doubles are written with shortest
/// round-trip formatting.
class MechanismSpec {
 public:
  MechanismSpec() = default;
  explicit MechanismSpec(std::string name) : name_(std::move(name)) {}

  /// Parses the compact form `name` or `name:key=val,key=val,...`, e.g.
  /// "two_phase:epsilon=1.0" or "ireduct:lambda_steps=16,objective=max_rel".
  /// Whitespace around tokens is ignored; duplicate keys are rejected.
  static Result<MechanismSpec> Parse(std::string_view text);

  /// Parses the JSON form
  ///   {"name": "ireduct", "params": {"lambda_steps": 16, "epsilon": 0.5}}
  /// ("params" optional; values may be strings, numbers or booleans).
  static Result<MechanismSpec> FromJson(std::string_view json);

  const std::string& name() const { return name_; }
  bool Has(std::string_view key) const;

  /// Sets `key` to `value`, replacing any existing value.
  void Set(std::string_view key, std::string_view value);
  /// Sets `key` to the shortest round-trip rendering of `value` — parsing
  /// it back yields exactly the same double.
  void Set(std::string_view key, double value);
  /// Like Set, but keeps an existing value (caller-provided params win
  /// over environment-derived defaults).
  void SetDefault(std::string_view key, std::string_view value);
  void SetDefault(std::string_view key, double value);

  /// Typed accessors; return `fallback` when the key is absent and
  /// kInvalidArgument when present but malformed.
  Result<double> GetDouble(std::string_view key, double fallback) const;
  Result<int64_t> GetInt(std::string_view key, int64_t fallback) const;
  std::string GetString(std::string_view key, std::string_view fallback) const;

  /// Parameters in insertion order.
  const std::vector<std::pair<std::string, std::string>>& params() const {
    return params_;
  }

  /// Canonical compact rendering (`name` or `name:key=val,...`), suitable
  /// for logs, ledger labels and re-parsing.
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> params_;
};

/// Whether a mechanism's output carries a differential-privacy guarantee.
/// The paper's Proportional and Oracle baselines read the true answers to
/// set their noise scales and are deliberately non-private.
enum class MechanismPrivacy {
  kPrivate,
  kNonPrivate,
};

/// Documentation for one spec parameter a mechanism accepts.
struct MechanismParamDoc {
  std::string key;
  std::string default_value;  // "" when the default is context-dependent
  std::string doc;
};

/// Self-description of a registered mechanism.
struct MechanismInfo {
  /// Registry key ("ireduct", "two_phase", ...). Lowercase snake_case.
  std::string name;
  /// Paper-style display name ("iReduct", "TwoPhase", ...) used in bench
  /// tables and ledger labels.
  std::string display_name;
  std::string summary;
  MechanismPrivacy privacy = MechanismPrivacy::kPrivate;
  std::vector<MechanismParamDoc> params;
};

/// A pluggable publication mechanism: consumes a Workload and a spec,
/// produces a MechanismOutput. Implementations must be stateless across
/// Run calls (the registry shares one instance between threads) and draw
/// all randomness from the caller's BitGen.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Name, privacy status and accepted parameters.
  virtual MechanismInfo Describe() const = 0;

  /// Checks `spec` against Describe(): the name must match and every key
  /// must be a declared parameter (catching typos before a run). Override
  /// to add cross-parameter checks; overriders should still call this.
  virtual Status ValidateSpec(const MechanismSpec& spec) const;

  /// Runs the mechanism. `spec` has passed ValidateSpec; parameter values
  /// may still fail typed parsing, reported as kInvalidArgument.
  virtual Result<MechanismOutput> Run(const Workload& workload,
                                      const MechanismSpec& spec,
                                      BitGen& gen) const = 0;

  /// Crash-safety hooks threaded into a run (see dp/checkpoint.h). The
  /// default-constructed value is trivial: no checkpointing, no resume.
  struct ResumableHooks {
    CheckpointOptions checkpoint;
    const RunCheckpoint* resume = nullptr;

    bool trivial() const {
      return !checkpoint.enabled() && resume == nullptr;
    }
  };

  /// Like Run, but with checkpoint/resume hooks. The base implementation
  /// forwards trivial hooks to Run and refuses non-trivial ones with
  /// kInvalidArgument; the iterative mechanisms (ireduct, iresamp)
  /// override it.
  virtual Result<MechanismOutput> RunResumable(
      const Workload& workload, const MechanismSpec& spec, BitGen& gen,
      const ResumableHooks& hooks) const;

  /// Fills `key` into `spec` only when absent AND declared by this
  /// mechanism — the tool/session/bench layers derive per-workload
  /// defaults (epsilon, delta, lambda_max, ...) without knowing which of
  /// them each mechanism consumes.
  void SetSpecDefault(MechanismSpec* spec, std::string_view key,
                      double value) const;
  void SetSpecDefault(MechanismSpec* spec, std::string_view key,
                      std::string_view value) const;
};

/// String-keyed mechanism registry. `Global()` arrives pre-populated with
/// every built-in algorithm, in the paper's reporting order: oracle,
/// ireduct, two_phase, iresamp, dwork, proportional, geometric,
/// hierarchical, wavelet. Thread-safe for concurrent lookup; Register
/// additional mechanisms during startup, before concurrent use.
class MechanismRegistry {
 public:
  MechanismRegistry() = default;
  MechanismRegistry(const MechanismRegistry&) = delete;
  MechanismRegistry& operator=(const MechanismRegistry&) = delete;

  /// The process-wide registry with all built-ins registered.
  static MechanismRegistry& Global();

  /// Registers a mechanism under its Describe().name. Fails with
  /// kInvalidArgument on an empty name or a duplicate.
  Status Register(std::unique_ptr<Mechanism> mechanism);

  /// Mechanism for `name`, or nullptr.
  const Mechanism* Find(std::string_view name) const;

  /// Like Find, but a kNotFound Status naming the known mechanisms.
  Result<const Mechanism*> Get(std::string_view name) const;

  /// Registered names, in registration order.
  std::vector<std::string> Names() const;

  size_t size() const { return entries_.size(); }

  /// Lookup + ValidateSpec + Run in one call.
  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec, BitGen& gen) const;

  /// Convenience: parses `spec_text` and runs it.
  Result<MechanismOutput> Run(const Workload& workload,
                              std::string_view spec_text, BitGen& gen) const;

  /// Lookup + ValidateSpec + RunResumable in one call.
  Result<MechanismOutput> RunResumable(
      const Workload& workload, const MechanismSpec& spec, BitGen& gen,
      const Mechanism::ResumableHooks& hooks) const;

 private:
  std::vector<std::unique_ptr<Mechanism>> entries_;
};

}  // namespace ireduct

#endif  // IREDUCT_ALGORITHMS_MECHANISM_REGISTRY_H_
