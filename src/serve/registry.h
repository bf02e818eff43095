// Model registry for dlner_serve: named v2 checkpoints, hot-reloadable.
//
// Pipelines are held by shared_ptr and handed out by value, so a reload
// swaps the registry entry atomically while any batch already executing
// keeps the old pipeline alive until it finishes — hot reload never drops
// or corrupts in-flight requests. Every successful (re)load bumps the
// entry's generation, which the response cache folds into its key
// (serve/cache.h), so stale cached responses stop matching immediately.
#ifndef DLNER_SERVE_REGISTRY_H_
#define DLNER_SERVE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace dlner::serve {

class ModelRegistry {
 public:
  struct Entry {
    std::shared_ptr<const core::Pipeline> pipeline;  // null when unknown
    std::uint64_t generation = 0;
  };

  /// Loads the checkpoint at `path` and installs it under `name`,
  /// replacing any existing model. The (slow) checkpoint read happens
  /// outside the registry lock; on a load failure the registry is
  /// unchanged — the previous model, if any, keeps serving.
  bool Load(const std::string& name, const std::string& path);

  /// The current pipeline + generation for `name`; Entry{nullptr, 0} when
  /// unknown.
  Entry Get(const std::string& name) const;

  /// Registered model names, sorted.
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Entry> models_;
};

}  // namespace dlner::serve

#endif  // DLNER_SERVE_REGISTRY_H_
