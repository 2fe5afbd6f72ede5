// Multi-tenant plan registry: versioned plan cache, shared weight pools,
// and zero-downtime hot swap for the serving stack.
//
// A PlanRegistry owns named models. Each model is a monotonically
// versioned list of compiled plans: a version holds the fp32 CompiledPlan
// and, lazily, an int8 lowering of the same exported network. Compilation
// is memoized on (weights fingerprint, shape class, dtype) — registering
// an identical version twice, or the same weights under two model names,
// returns the cached plan without recompiling — and every packed weight
// block is content-hash interned through the registry's WeightPool, so a
// fleet of versions that differ in one retrained layer shares the
// physical bytes of every unchanged layer (shared_block.hpp).
//
// HOT SWAP. Exactly one version per model is *active*. The serve layer
// resolves the active version per request/open through acquire(), which
// returns a PlanLease: a shared_ptr pin on the plan plus an in-flight
// ticket. swap_active(model, v) flips the active version immediately for
// new acquires, then blocks until every lease and ticket taken against
// the old epoch has drained — when it returns, no in-flight batch or
// mid-step session is still executing the old version (sessions that
// PINNED the old plan at open keep their shared_ptr and finish their
// sequences on it; the old plan's memory is released when the last pin
// drops). The drain protocol is epoch-parity counting:
//
//   epoch (atomic u64)   — bumped once per swap, under registry_mutex_.
//   inflight[epoch & 1]  — work admitted during that epoch's parity.
//
// The lock-free ticket path (per-step hot path) loads the epoch,
// increments the matching parity counter, and re-checks the epoch: if a
// swap flipped it in between, the ticket retries on the new parity — a
// ticket that validates is therefore always visible to the swap's drain
// wait (all ticket/epoch operations are seq_cst). Release decrements and,
// only while a swap is draining, notifies the registry's condition
// variable — the idle-path cost of a ticket is two uncontended atomic
// RMWs, no lock.
//
// LOCK ORDER (extends the serve chain; see scripts/check_invariants.py):
// a ticket release may run under a serve slot mutex, so the registry's
// locks rank strictly after serve's — swap_mutex (per entry, serializes
// swaps of one model) before registry_mutex_ (map, memo, stats, version
// lists). Registry methods never take serve locks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/dataloader.hpp"
#include "nn/module.hpp"
#include "runtime/compiled_net.hpp"
#include "runtime/quantize_plan.hpp"
#include "runtime/shared_block.hpp"

namespace pit::runtime {

class PlanRegistry;

namespace registry_detail {
struct ModelEntry;  // opaque; defined in plan_registry.cpp
}  // namespace registry_detail

/// Which program of a version the serve layer executes. kF32 names the
/// version's primary plan (whatever was registered — for adapter-wrapped
/// quantized plans that plan may itself carry an int8 program); kInt8
/// names the lowering materialized by PlanRegistry::quantized().
enum class PlanDtype : std::uint8_t { kF32, kInt8 };

/// Memoization key for compiled plans: same exported weights + same shape
/// specialization + same dtype = same plan, no recompilation.
struct PlanKey {
  std::uint64_t fingerprint = 0;  ///< weights_fingerprint() of the model
  std::string shape_class;        ///< e.g. "temponet:stream:256"
  PlanDtype dtype = PlanDtype::kF32;

  bool operator==(const PlanKey& o) const {
    return fingerprint == o.fingerprint && dtype == o.dtype &&
           shape_class == o.shape_class;
  }
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const {
    std::uint64_t h = k.fingerprint;
    h = hash_bytes(k.shape_class.data(), k.shape_class.size(), h);
    const auto d = static_cast<std::uint8_t>(k.dtype);
    return static_cast<std::size_t>(hash_bytes(&d, 1, h));
  }
};

/// Registry-wide counters (a snapshot; the registry keeps moving).
struct PlanRegistryStats {
  std::uint64_t compiles = 0;       ///< cold compiles executed
  std::uint64_t compile_hits = 0;   ///< register_version served from memo
  std::uint64_t lowerings = 0;      ///< int8 lowerings materialized
  std::uint64_t lowering_hits = 0;  ///< quantized() served from cache
  std::uint64_t swaps = 0;          ///< completed swap_active calls
  std::uint64_t leases = 0;         ///< acquire() calls
  WeightPoolStats pool;             ///< dedup accounting across plans
};

/// Weight-memory accounting over a model (or the whole registry):
/// logical bytes sum every version's blocks as if private; resident
/// bytes count each physical block once.
struct ModelMemory {
  std::size_t logical_bytes = 0;
  std::size_t resident_bytes = 0;
  double dedup_ratio() const {
    return resident_bytes == 0 ? 1.0
                               : static_cast<double>(logical_bytes) /
                                     static_cast<double>(resident_bytes);
  }
};

/// RAII in-flight marker against one model's current epoch. While any
/// ticket on an epoch parity is live, swap_active() of that model blocks
/// in its drain wait. Move-only; released on destruction.
class InflightTicket {
 public:
  InflightTicket() = default;
  InflightTicket(InflightTicket&& o) noexcept
      : reg_(o.reg_), entry_(o.entry_), parity_(o.parity_) {
    o.reg_ = nullptr;
  }
  InflightTicket& operator=(InflightTicket&& o) noexcept {
    if (this != &o) {
      release();
      reg_ = o.reg_;
      entry_ = o.entry_;
      parity_ = o.parity_;
      o.reg_ = nullptr;
    }
    return *this;
  }
  ~InflightTicket() { release(); }
  InflightTicket(const InflightTicket&) = delete;
  InflightTicket& operator=(const InflightTicket&) = delete;

  void release();
  explicit operator bool() const { return reg_ != nullptr; }

 private:
  friend class PlanRegistry;
  PlanRegistry* reg_ = nullptr;
  registry_detail::ModelEntry* entry_ = nullptr;
  unsigned parity_ = 0;
};

/// A resolved active version: shared_ptr pin on the plan (keeps its
/// weights alive past any swap) plus an InflightTicket (holds the swap's
/// drain until this unit of work finishes). Move-only RAII.
class PlanLease {
 public:
  PlanLease() = default;
  PlanLease(PlanLease&&) noexcept = default;
  PlanLease& operator=(PlanLease&&) noexcept = default;
  PlanLease(const PlanLease&) = delete;
  PlanLease& operator=(const PlanLease&) = delete;

  const CompiledPlan& operator*() const { return *plan_; }
  const CompiledPlan* operator->() const { return plan_.get(); }
  const std::shared_ptr<const CompiledPlan>& plan() const { return plan_; }
  std::uint64_t version() const { return version_; }
  explicit operator bool() const { return plan_ != nullptr; }

  /// Drops the plan pin and the in-flight ticket early.
  void release() {
    plan_.reset();
    ticket_.release();
  }

 private:
  friend class PlanRegistry;
  std::shared_ptr<const CompiledPlan> plan_;
  std::uint64_t version_ = 0;
  InflightTicket ticket_;
};

/// Stable content fingerprint of a model's exported state: hashes every
/// named parameter and buffer (name, shape, values). Buffers are included
/// because batch-norm running statistics fold into the compiled weights.
std::uint64_t weights_fingerprint(const nn::Module& model);

class PlanRegistry : public std::enable_shared_from_this<PlanRegistry> {
 public:
  /// Cold-compile callback: build the plan, interning its packed weight
  /// blocks through the registry's pool. Only runs on a memo miss.
  using CompileFn =
      std::function<std::shared_ptr<const CompiledPlan>(WeightPool&)>;

  // Both out-of-line: ModelEntry is opaque here, and constructing or
  // destroying the entry map needs its complete type.
  PlanRegistry();
  ~PlanRegistry();
  PlanRegistry(const PlanRegistry&) = delete;
  PlanRegistry& operator=(const PlanRegistry&) = delete;

  /// Registers a new version of `model` and returns its version number
  /// (1-based, monotonic per model). On a memo hit — same fingerprint and
  /// shape class as any prior registration — the cached plan is reused
  /// and `compile` never runs; re-registering a plan the model already
  /// holds returns the existing version number instead of growing the
  /// list. The first version of a model becomes active. All versions of
  /// one model must share input/output geometry.
  std::uint64_t register_version(const std::string& model,
                                 std::uint64_t fingerprint,
                                 const std::string& shape_class,
                                 const CompileFn& compile);

  /// Adapter path for already-compiled plans (the single-plan serve
  /// constructors): fingerprints the plan's own packed weights, so
  /// registering the same plan object twice still memo-hits.
  std::uint64_t register_plan(const std::string& model,
                              std::shared_ptr<const CompiledPlan> plan);

  /// Lazily materializes (and caches) the int8 lowering of one version.
  /// The second call for the same version returns the cached plan without
  /// recalibrating; s8 weight blocks intern through the registry pool.
  std::shared_ptr<const CompiledPlan> quantized(
      const std::string& model, std::uint64_t version,
      const data::DataLoader& calibration);

  /// Makes `version` the active version of `model`. New acquires see the
  /// new version immediately; this call returns only after every lease
  /// and ticket taken against the previous epoch has been released — on
  /// return, nothing is still executing the old active version except
  /// sessions that pinned its shared_ptr, which drain on their own.
  void swap_active(const std::string& model, std::uint64_t version);

  /// Pins the active version for one unit of work (a batch, an open).
  /// Throws for an unknown model, or for kInt8 when the active version
  /// has no materialized lowering.
  PlanLease acquire(const std::string& model,
                    PlanDtype dtype = PlanDtype::kF32);

  std::uint64_t active_version(const std::string& model) const;
  std::size_t num_versions(const std::string& model) const;
  bool has_model(const std::string& model) const;

  PlanRegistryStats stats() const;
  /// Dedup accounting across every version (fp32 + int8) of one model.
  ModelMemory memory(const std::string& model) const;
  /// Dedup accounting across the whole registry.
  ModelMemory memory() const;

  WeightPool& pool() { return pool_; }

 private:
  friend class InflightTicket;
  friend class PlanHandle;

  registry_detail::ModelEntry* entry(const std::string& model) const;
  std::uint64_t add_version_locked(const std::string& model,
                                   std::shared_ptr<const CompiledPlan> plan,
                                   std::uint64_t fingerprint,
                                   const std::string& shape_class);
  PlanLease acquire_entry(registry_detail::ModelEntry* e, PlanDtype dtype);
  InflightTicket ticket_entry(registry_detail::ModelEntry* e);
  void release_ticket(registry_detail::ModelEntry* e, unsigned parity);
  static void account_memory_locked(
      const registry_detail::ModelEntry& e, ModelMemory& m,
      std::unordered_map<const void*, std::size_t>& seen);

  WeightPool pool_;
  mutable std::mutex registry_mutex_;
  std::condition_variable drain_cv_;
  // unique_ptr values: ModelEntry addresses stay stable across rehashes
  // (PlanHandle caches them); entries are never erased.
  std::unordered_map<std::string, std::unique_ptr<registry_detail::ModelEntry>>
      models_;
  std::unordered_map<PlanKey, std::shared_ptr<const CompiledPlan>, PlanKeyHash>
      memo_;
  PlanRegistryStats stats_;
};

/// A (registry, model, dtype) triple — what the serve layer holds instead
/// of a bare plan. Copyable; resolves the model's entry once at
/// construction (entries are never erased, so the cached pointer stays
/// valid for the registry's lifetime, which the handle's shared_ptr pins).
class PlanHandle {
 public:
  PlanHandle() = default;
  PlanHandle(std::shared_ptr<PlanRegistry> registry, std::string model,
             PlanDtype dtype = PlanDtype::kF32);

  /// Wraps one already-compiled plan in a fresh one-entry registry — the
  /// adapter the legacy single-plan serve constructors sit on.
  static PlanHandle single(std::shared_ptr<const CompiledPlan> plan);

  /// Pins the active version for one unit of work.
  PlanLease acquire() const;
  /// Lock-free in-flight marker for one step against the current epoch
  /// (the session keeps its own plan pin; the ticket only holds the
  /// swap's drain).
  InflightTicket ticket() const;

  const std::shared_ptr<PlanRegistry>& registry() const { return registry_; }
  const std::string& model() const { return model_; }
  PlanDtype dtype() const { return dtype_; }
  explicit operator bool() const { return registry_ != nullptr; }

 private:
  std::shared_ptr<PlanRegistry> registry_;
  std::string model_;
  PlanDtype dtype_ = PlanDtype::kF32;
  registry_detail::ModelEntry* entry_ = nullptr;
};

}  // namespace pit::runtime
