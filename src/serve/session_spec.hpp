#pragma once
// vcgt::serve::SessionSpec — the one serializable description of a coupled
// simulation session (DESIGN.md §12).
//
// Before this existed, "what to run" was scattered across constructor
// arguments: a rig::RigSpec from a factory, a rig::MeshResolution tier, a
// hydra::FlowConfig, the jm76 coupling knobs, an op2::Config and a
// minimpi fault plan, each threaded by hand into jm76::CoupledConfig at
// every call site. A serving front end needs that bundle to be a *value*:
// comparable (is this the same session a warm worker already holds?),
// hashable (what key do cached partitions/plans live under?), and wire-
// encodable (a client submits the spec, not code). SessionSpec is that
// value. Its canonical byte form (serialize()) feeds both the frame
// protocol and the two hashes:
//
//  - setup_hash() covers only the fields that determine setup artifacts —
//    rig geometry, mesh resolution, flow model, coupling topology, op2
//    execution config. It keys the op2::PlanCache entries (meshes, owner
//    maps, loop/chain plans) and warm-session matching. Per-job knobs
//    (step counts) and the fault plan are excluded on purpose: a chaos
//    variant of a spec exercises the *same* mesh and plans, so it shares
//    the cache and can reuse a warm rig.
//  - hash() covers everything, identifying the exact job.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/hydra/config.hpp"
#include "src/jm76/coupled.hpp"
#include "src/minimpi/fault.hpp"
#include "src/op2/types.hpp"
#include "src/rig/rowspec.hpp"

namespace vcgt::serve {

struct SessionSpec {
  // --- rig geometry (factory parameters, not the expanded RigSpec) --------
  std::string rig = "rig250";  ///< "rig250" | "rig250_swan_neck"
  int nrows = 2;
  double rpm = 11000.0;
  bool contraction = false;
  /// Mesh resolution tier ("tiny"|"small"|"medium"|...) expanded through
  /// rig::resolution_tier(); explicit res overrides when tier is empty.
  std::string tier = "tiny";
  rig::MeshResolution res{};

  // --- flow model ---------------------------------------------------------
  hydra::FlowConfig flow{};

  // --- coupling topology --------------------------------------------------
  std::vector<int> hs_ranks{1, 1};  ///< ranks per row
  int cus_per_interface = 1;
  jm76::SearchKind search = jm76::SearchKind::Adt;
  jm76::InterpKind interp = jm76::InterpKind::DonorCell;
  jm76::TransferKind transfer = jm76::TransferKind::SlidingPlane;
  jm76::CoupledConfig::CuPartition cu_partition =
      jm76::CoupledConfig::CuPartition::Sector;
  bool staged_gather = true;

  // --- op2 execution ------------------------------------------------------
  op2::Config op2cfg{};
  op2::Partitioner partitioner = op2::Partitioner::Rcb;
  /// Billion-node setup path: per-rank shard synthesis + partition_sharded
  /// (CoupledConfig::sharded_setup). Setup-determining: sharded contexts key
  /// their plan-cache entries separately (op2 plansnap `s` discriminator).
  bool sharded_setup = false;

  // --- per-job (excluded from setup_hash) ---------------------------------
  int nsteps = 1;
  int inner = -1;  ///< pseudo-time iterations per step; -1 = FlowConfig value
  minimpi::FaultConfig fault{};

  /// Ranks the session's world needs (HS ranks + coupler units).
  [[nodiscard]] int world_size() const;

  /// Canonical little-endian byte form (the hashes are FNV-1a over this).
  [[nodiscard]] std::vector<std::byte> serialize() const;
  /// Inverse of serialize(). Untrusted input: throws std::runtime_error on
  /// a version mismatch, truncation, a count larger than the remaining
  /// bytes can hold, an out-of-range enum byte or trailing bytes.
  static SessionSpec deserialize(std::span<const std::byte> bytes);

  /// Hash of the full spec (job identity).
  [[nodiscard]] std::uint64_t hash() const;
  /// Hash of the setup-determining fields only (cache / warm-session key).
  [[nodiscard]] std::uint64_t setup_hash() const;
  /// Hash of the fault plan alone. Worker worlds are keyed by
  /// (world_size, fault_hash): a chaos spec shares the plan cache with its
  /// clean twin but never shares a world with it.
  [[nodiscard]] std::uint64_t fault_hash() const;

  /// Expands the spec into the jm76 constructor bundle. `plan_cache` may be
  /// null; when set it is wired in together with setup_hash(). Pipelined
  /// coupling is always off for served sessions: the one-step ghost lag
  /// would make the per-step frames observe stale interface data and a
  /// one-step run() would couple nothing at all.
  [[nodiscard]] jm76::CoupledConfig coupled_config(
      op2::PlanCache* plan_cache = nullptr) const;

  bool operator==(const SessionSpec& other) const;
};

}  // namespace vcgt::serve
