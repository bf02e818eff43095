#include "serve/registry.h"

#include <utility>

#include "obs/trace.h"

namespace dlner::serve {

bool ModelRegistry::Load(const std::string& name, const std::string& path) {
  obs::ScopedSpan span("serve/reload");
  std::shared_ptr<const core::Pipeline> pipeline = core::Pipeline::Load(path);
  if (pipeline == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = models_[name];
  entry.pipeline = std::move(pipeline);
  ++entry.generation;
  return true;
}

ModelRegistry::Entry ModelRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  return it == models_.end() ? Entry{} : it->second;
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, entry] : models_) names.push_back(name);
  return names;
}

}  // namespace dlner::serve
