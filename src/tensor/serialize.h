// Binary (de)serialization of tensors and named parameter lists.
//
// Format (little-endian, host doubles):
//   magic "DLNR" | version u32 | count u32 |
//   per parameter: name_len u32 | name bytes | rank u32 | dims i32[rank] |
//                  data f64[numel]
// Loading verifies names and shapes so that a checkpoint can only be
// restored into a structurally identical model, each parameter exactly once,
// and every reader bounds its allocations so corrupt or truncated input
// fails with `false` instead of a crash or a huge allocation.
#ifndef DLNER_TENSOR_SERIALIZE_H_
#define DLNER_TENSOR_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "tensor/variable.h"

namespace dlner {

/// Upper bound on elements of a single deserialized tensor (512 MB of
/// doubles) — far above any model in the toolkit, far below what a corrupt
/// dim field could request.
constexpr std::uint64_t kMaxTensorElements = 1ull << 26;

// --- Primitive binary helpers shared by all checkpoint readers/writers ---

/// Writes a little-endian u32.
void WriteU32(std::ostream& os, uint32_t v);

/// Reads a u32; returns false on a short stream.
bool ReadU32(std::istream& is, uint32_t* v);

/// Writes a trivially copyable value as its raw host bytes.
template <typename T>
void WritePod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Reads a value written by WritePod; returns false on a short stream.
template <typename T>
bool ReadPod(std::istream& is, T* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return static_cast<bool>(is);
}

/// Bools are framed as one 0/1 byte. Reading a raw byte straight into a
/// bool would be undefined behavior for corrupt values (anything but 0/1),
/// so the reader decodes via uint8_t and rejects other values outright.
void WritePod(std::ostream& os, const bool& v);
bool ReadPod(std::istream& is, bool* v);

/// Writes a u32-length-prefixed byte string.
void WriteLenString(std::ostream& os, const std::string& s);

/// Reads a length-prefixed string, rejecting lengths above `max_len`.
bool ReadLenString(std::istream& is, std::string* s, uint32_t max_len);

/// Writes a named parameter list (names must be unique and non-empty).
void SaveParameters(std::ostream& os, const std::vector<Var>& params);

/// Restores values into `params`, matching entries by name, by reading each
/// entry's data straight into the matching parameter's existing buffer.
/// Entries no parameter claims are bounds-checked and skipped. Returns false
/// if the stream is malformed, a name repeats or is missing, or a shape
/// differs. A failed load may leave the parameter it was reading partly
/// overwritten (and earlier ones fully overwritten), so callers discard the
/// parameters on failure. Every entry's shape, claimed or skipped, is
/// bounded by kMaxTensorElements and its dim product is checked for
/// overflow before anything is read.
bool LoadParameters(std::istream& is, const std::vector<Var>& params);

}  // namespace dlner

#endif  // DLNER_TENSOR_SERIALIZE_H_
