#include "tensor/serialize.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tensor/check.h"

namespace dlner {
namespace {

constexpr char kMagic[4] = {'D', 'L', 'N', 'R'};
constexpr uint32_t kVersion = 1;
// A parameter list longer than this is certainly corrupt.
constexpr uint32_t kMaxParameterCount = 1u << 20;

// Reads a tensor header (rank and dims). The element count is bounded by
// kMaxTensorElements, and the running dim product is checked before it can
// overflow, so a corrupt header never leads to a huge allocation or read.
bool ReadShape(std::istream& is, std::vector<int>* shape) {
  uint32_t rank = 0;
  if (!ReadU32(is, &rank) || rank > 8) return false;
  shape->resize(rank);
  std::uint64_t numel = 1;
  for (uint32_t i = 0; i < rank; ++i) {
    int32_t d = 0;
    is.read(reinterpret_cast<char*>(&d), sizeof(d));
    if (!is || d < 0) return false;
    (*shape)[i] = d;
    // numel <= kMaxTensorElements (2^26) and d < 2^31 here, so the product
    // stays below 2^57 — no u64 overflow before the bound check.
    numel *= static_cast<std::uint64_t>(d);
    if (numel > kMaxTensorElements) return false;
  }
  return true;
}

// Reads t->size() doubles straight into t's buffer.
bool ReadData(std::istream& is, Tensor* t) {
  is.read(reinterpret_cast<char*>(t->data()),
          static_cast<std::streamsize>(t->size() * sizeof(Float)));
  return static_cast<bool>(is);
}

// Skips the data of an entry no parameter claims; `shape` passed ReadShape.
bool SkipData(std::istream& is, const std::vector<int>& shape) {
  std::streamsize bytes = sizeof(Float);
  for (int d : shape) bytes *= d;
  is.ignore(bytes);
  return is.gcount() == bytes;
}

void SaveTensor(std::ostream& os, const Tensor& t) {
  WriteU32(os, static_cast<uint32_t>(t.dim()));
  for (int i = 0; i < t.dim(); ++i) {
    int32_t d = t.shape(i);
    os.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.size() * sizeof(Float)));
}

}  // namespace

void WriteU32(std::ostream& os, uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU32(std::istream& is, uint32_t* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return static_cast<bool>(is);
}

void WritePod(std::ostream& os, const bool& v) {
  const uint8_t b = v ? 1 : 0;
  os.write(reinterpret_cast<const char*>(&b), sizeof(b));
}

bool ReadPod(std::istream& is, bool* v) {
  uint8_t b = 0;
  is.read(reinterpret_cast<char*>(&b), sizeof(b));
  if (!is || b > 1) return false;
  *v = b != 0;
  return true;
}

void WriteLenString(std::ostream& os, const std::string& s) {
  WriteU32(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadLenString(std::istream& is, std::string* s, uint32_t max_len) {
  uint32_t len = 0;
  if (!ReadU32(is, &len) || len > max_len) return false;
  s->assign(len, '\0');
  is.read(s->data(), len);
  return static_cast<bool>(is);
}

void SaveParameters(std::ostream& os, const std::vector<Var>& params) {
  os.write(kMagic, sizeof(kMagic));
  WriteU32(os, kVersion);
  WriteU32(os, static_cast<uint32_t>(params.size()));
  for (const Var& p : params) {
    DLNER_CHECK_MSG(!p->name.empty(), "serializable parameters need names");
    WriteU32(os, static_cast<uint32_t>(p->name.size()));
    os.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    SaveTensor(os, p->value);
  }
}

bool LoadParameters(std::istream& is, const std::vector<Var>& params) {
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || std::string(magic, 4) != std::string(kMagic, 4)) return false;
  uint32_t version = 0;
  if (!ReadU32(is, &version) || version != kVersion) return false;
  uint32_t count = 0;
  if (!ReadU32(is, &count) || count > kMaxParameterCount) return false;

  std::unordered_map<std::string, Var> by_name;
  for (const Var& p : params) {
    DLNER_CHECK(!p->name.empty());
    DLNER_CHECK_MSG(by_name.emplace(p->name, p).second,
                    "duplicate parameter name: " << p->name);
  }

  std::unordered_set<std::string> seen;
  size_t restored = 0;
  std::vector<int> shape;
  for (uint32_t k = 0; k < count; ++k) {
    std::string name;
    if (!ReadLenString(is, &name, 4096)) return false;
    if (!ReadShape(is, &shape)) return false;
    auto it = by_name.find(name);
    // A repeated name would let one parameter stand in for another that
    // the checkpoint omits.
    if (!seen.insert(std::move(name)).second) return false;
    if (it == by_name.end()) {
      // Extra entries are tolerated.
      if (!SkipData(is, shape)) return false;
      continue;
    }
    Tensor& value = it->second->value;
    if (value.shape() != shape) return false;
    if (!ReadData(is, &value)) return false;
    ++restored;
  }
  return restored == params.size();
}

}  // namespace dlner
