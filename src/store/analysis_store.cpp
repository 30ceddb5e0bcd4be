#include "store/analysis_store.hpp"

#include <cstdlib>

namespace pwcet {

StoreOptions store_options_from_env(StoreOptions base) {
  if (base.enabled && base.artifact_dir.empty()) {
    const char* dir = std::getenv("PWCET_CACHE_DIR");
    if (dir != nullptr && *dir != '\0') base.artifact_dir = dir;
  }
  return base;
}

AnalysisStore::AnalysisStore(const StoreOptions& options) {
  if (!options.artifact_dir.empty())
    artifacts_ = std::make_unique<ArtifactStore>(
        ArtifactStore::Options{options.artifact_dir});
}

StoreStats AnalysisStore::stats() const {
  StoreStats stats = memo_.stats();
  if (artifacts_ != nullptr) {
    stats.disk_hits = artifacts_->disk_hits();
    stats.disk_misses = artifacts_->disk_misses();
    stats.disk_writes = artifacts_->disk_writes();
  }
  return stats;
}

}  // namespace pwcet
