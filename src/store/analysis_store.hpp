/// \file
/// Facade over the two store tiers, shared by the pipeline and the
/// campaign engine.
///
/// One AnalysisStore instance serves a whole campaign (or, if the caller
/// keeps it alive, any number of campaigns). All methods are
/// thread-safe; pool workers use the store concurrently.
///
/// Determinism: the store only ever returns bits some earlier invocation
/// of the *same deterministic computation on the same inputs* produced, so
/// enabling it cannot change a single byte of any report — enforced by
/// tests/store_test.cpp (store on vs off, single- vs multi-threaded, cold
/// vs warm disk cache).
#pragma once

#include <memory>
#include <string>

#include "store/artifact_store.hpp"
#include "store/memo_cache.hpp"

namespace pwcet {

struct StoreOptions {
  /// Master switch; disabled means no store object exists at all.
  bool enabled = true;
  /// Cache directory for the on-disk artifact tier; empty keeps the store
  /// purely in-memory (no file I/O).
  std::string artifact_dir;
};

/// Deployment fallback, applied by run_campaign: `PWCET_CACHE_DIR=<dir>`
/// enables the artifact tier of an enabled store whose `base` did not
/// already name a directory. A disabled `base` is returned unchanged.
StoreOptions store_options_from_env(StoreOptions base = {});

class AnalysisStore {
 public:
  explicit AnalysisStore(const StoreOptions& options = {});

  MemoCache& memo() { return memo_; }

  /// nullptr when the artifact tier is off (no cache directory).
  ArtifactStore* artifacts() { return artifacts_.get(); }

  /// Combined counters of both tiers.
  StoreStats stats() const;

 private:
  MemoCache memo_;
  std::unique_ptr<ArtifactStore> artifacts_;
};

}  // namespace pwcet
